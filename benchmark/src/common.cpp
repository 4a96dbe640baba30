#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ecobench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void AppendSegments(std::int64_t from_ns, const std::vector<std::int64_t>& ends,
                    std::int64_t to_ns, std::vector<double>& segments) {
  for (const std::int64_t end : ends) {
    segments.push_back(static_cast<double>(end - from_ns) / 1e9);
    from_ns = end;
  }
  segments.push_back(static_cast<double>(to_ns - from_ns) / 1e9);
}

void Digest::Add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

SchedClock::SchedClock(eco::telemetry::MetricsRegistry& registry)
    : submit_ns_(registry.GetCounter("eco_sched_submit_ns_total")),
      dispatch_ns_(registry.GetCounter("eco_sched_dispatch_ns_total")) {}

std::int64_t SchedClock::Ns() const {
  return static_cast<std::int64_t>(submit_ns_->Value() + dispatch_ns_->Value());
}

SimScope::SimScope(const char* name, const SchedClock* clock,
                   std::uint64_t request)
    : log_(CurrentLog()), clock_(clock) {
  if (log_ == nullptr) return;
  if (clock_ != nullptr) sched_start_ = clock_->Ns();
  log_->Begin(name, Layer::kSim, request);
}

SimScope::~SimScope() {
  if (log_ == nullptr) return;
  const SpanLog::Closed closed = log_->End();
  if (clock_ != nullptr) {
    log_->MoveSelf(Layer::kSim, Layer::kSched,
                   clock_->Ns() - sched_start_ - closed.child_ns);
  }
}

Window::Window(const Tracer* tracer)
    : tracer_(tracer), main_(CurrentLog()), start_ns_(NowNs()) {
  if (tracer_ == nullptr) return;
  all_start_ = Sum(false);
  main_start_ = Sum(true);
}

Window::Totals Window::Sum(bool main_only) const {
  Totals totals;
  for (const SpanLog& log : tracer_->logs()) {
    if (main_only && &log != main_) continue;
    for (int l = 0; l < kLayerCount; ++l) {
      totals.self[l] += log.self_ns(static_cast<Layer>(l));
    }
    totals.idle += log.idle_ns();
  }
  return totals;
}

void Window::Close(RepResult& result) {
  const std::int64_t wall_ns = NowNs() - start_ns_;
  result.wall_s = static_cast<double>(wall_ns) / 1e9;
  result.metrics["peak_rss_mb"] = PeakRssMb();
  if (tracer_ == nullptr) return;
  const Totals all = Sum(false);
  const Totals main = Sum(true);
  for (int l = 0; l < kLayerCount; ++l) {
    result.layer_self_s[LayerName(static_cast<Layer>(l))] =
        static_cast<double>(all.self[l] - all_start_.self[l]) / 1e9;
  }
  result.layer_self_s["idle"] =
      static_cast<double>(all.idle - all_start_.idle) / 1e9;
  std::int64_t covered = main.idle - main_start_.idle;
  for (int l = 0; l < kLayerCount; ++l) {
    if (static_cast<Layer>(l) == Layer::kHarness) continue;
    covered += main.self[l] - main_start_.self[l];
  }
  result.metrics["trace.coverage_pct"] =
      wall_ns > 0 ? 100.0 * static_cast<double>(covered) /
                        static_cast<double>(wall_ns)
                  : 0.0;
}

std::uint64_t CounterValue(const eco::telemetry::MetricsRegistry& registry,
                           const std::string& name) {
  const auto* counter = registry.FindCounter(name);
  return counter != nullptr ? counter->Value() : 0;
}

double GaugeValue(const eco::telemetry::MetricsRegistry& registry,
                  const std::string& name) {
  const auto* gauge = registry.FindGauge(name);
  return gauge != nullptr ? gauge->Value() : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace ecobench
