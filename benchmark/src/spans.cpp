#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace ecobench {
namespace {

thread_local SpanLog* tls_log = nullptr;

void AppendEscaped(std::ostringstream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRpc:
      return "rpc";
    case Layer::kIngress:
      return "ingress";
    case Layer::kPlugin:
      return "plugin";
    case Layer::kChronus:
      return "chronus";
    case Layer::kMl:
      return "ml";
    case Layer::kStorage:
      return "storage";
    case Layer::kSched:
      return "sched";
    case Layer::kSim:
      return "sim";
    case Layer::kHarness:
      return "harness";
    case Layer::kCount:
      break;
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog(std::string thread_name, std::size_t keep)
    : thread_name_(std::move(thread_name)), keep_(keep) {
  stack_.reserve(16);
}

void SpanLog::BeginAt(const char* name, Layer layer, std::uint64_t request,
                      std::int64_t now) {
  if (request == 0 && !stack_.empty()) request = stack_.back().request;
  std::int32_t record = -1;
  if (kept_.size() < keep_) {
    record = static_cast<std::int32_t>(kept_.size());
    SpanRecord span;
    span.name = name;
    span.layer = layer;
    span.start_ns = now;
    span.parent = stack_.empty() ? -1 : stack_.back().record;
    span.request = request;
    kept_.push_back(span);
  } else {
    ++dropped_;
  }
  stack_.push_back(Frame{name, layer, now, 0, request, record});
}

SpanLog::Closed SpanLog::EndAt(std::int64_t now) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  Closed closed;
  closed.duration_ns = now - frame.start_ns;
  closed.child_ns = frame.child_ns;
  self_ns_[static_cast<int>(frame.layer)] +=
      std::max<std::int64_t>(0, closed.duration_ns - frame.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += closed.duration_ns;
  ++closed_;
  if (frame.record >= 0) kept_[static_cast<std::size_t>(frame.record)].end_ns = now;
  // A handful of distinct literals per thread: a pointer scan beats hashing.
  auto it = std::find_if(by_name_.begin(), by_name_.end(),
                         [&](const auto& entry) { return entry.first == frame.name; });
  if (it == by_name_.end()) {
    by_name_.emplace_back(frame.name, NameStats{});
    it = std::prev(by_name_.end());
  }
  ++it->second.calls;
  it->second.total_ns += closed.duration_ns;
  return closed;
}

void SpanLog::MoveSelf(Layer from, Layer to, std::int64_t ns) {
  std::int64_t& source = self_ns_[static_cast<int>(from)];
  ns = std::clamp<std::int64_t>(ns, 0, std::max<std::int64_t>(0, source));
  source -= ns;
  self_ns_[static_cast<int>(to)] += ns;
}

SpanLog* Tracer::Attach(const std::string& thread_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.emplace_back(thread_name, keep_);
  tls_log = &logs_.back();
  return tls_log;
}

void Tracer::Detach() { tls_log = nullptr; }

void Tracer::Reattach(SpanLog* log) { tls_log = log; }

SpanLog* CurrentLog() { return tls_log; }

std::uint64_t ClosedSpans() { return tls_log != nullptr ? tls_log->closed() : 0; }

double MeasureSpanCostNs() {
  constexpr int kSpans = 100'000;
  // As many distinct names as a workload's sim thread records, so the
  // per-name lookup scans as far as it does there.
  static const char* const kNames[] = {"n0", "n1", "n2", "n3",
                                       "n4", "n5", "n6", "n7"};
  SpanLog log("calibration", kSpans);
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    log.Begin(kNames[i % 8], Layer::kHarness, 0);
    log.End();
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

std::int64_t Tracer::SelfNs(Layer layer) const {
  std::int64_t total = 0;
  for (const SpanLog& log : logs_) total += log.self_ns(layer);
  return total;
}

NameStats Tracer::Stats(std::string_view name) const {
  NameStats total;
  for (const SpanLog& log : logs_) {
    for (const auto& [span_name, stats] : log.by_name()) {
      if (name != span_name) continue;
      total.calls += stats.calls;
      total.total_ns += stats.total_ns;
    }
  }
  return total;
}

std::string Tracer::ChromeTraceJson() const {
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const SpanLog& log : logs_) {
    for (const SpanRecord& span : log.kept()) {
      if (!have_origin || span.start_ns < origin) origin = span.start_ns;
      have_origin = true;
    }
  }
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  int tid = 0;
  for (const SpanLog& log : logs_) {
    ++tid;
    sep();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":";
    AppendEscaped(out, log.thread_name());
    out << "}}";
    for (const SpanRecord& span : log.kept()) {
      if (span.end_ns < span.start_ns) continue;  // still open at export
      sep();
      out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"name\":";
      AppendEscaped(out, span.name);
      out << ",\"cat\":\"" << LayerName(span.layer) << "\",\"ts\":"
          << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"request\":" << span.request
          << ",\"parent\":" << span.parent << "}}";
    }
  }
  out << "]}\n";
  return out.str();
}

}  // namespace ecobench
