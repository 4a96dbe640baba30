// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// each layer's public functions (and inside the decorators it wraps around
// the layer interfaces); nothing inside src/ is instrumented. Each thread
// that records owns one SpanLog, so recording never takes a lock. Self time
// (a span's duration minus the part its child spans cover) is accumulated
// per layer as spans close, so the statistics cover every span even though
// only the first `keep` spans per thread are kept for the Chrome trace.
//
// When no SpanLog is attached to the calling thread a Scope is a no-op,
// which is how the untraced (measured) runs stay free of tracing cost.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ecobench {

// The layers, named after the repository modules they time.
enum class Layer : int {
  kRpc,      // src/slurm/rpc
  kIngress,  // src/slurm/ingress
  kPlugin,   // src/plugin/job_submit_eco
  kChronus,  // src/chronus gateway + services
  kMl,       // src/ml (model fit + pack)
  kStorage,  // src/chronus repositories + blob storage
  kSched,    // src/slurm cluster / sched_index / scheduler
  kSim,      // src/slurm node_sim + src/hw + energy ledger
  kHarness,  // the benchmark's own loop glue
  kCount,
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);

std::int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kHarness;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same log's kept records
  std::uint64_t request = 0;
};

struct NameStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  // inclusive durations
};

class SpanLog {
 public:
  SpanLog(std::string thread_name, std::size_t keep);

  // Opens a span; `request` 0 inherits the enclosing span's request id.
  // Spans on one thread close in LIFO order.
  void Begin(const char* name, Layer layer, std::uint64_t request) {
    BeginAt(name, layer, request, NowNs());
  }
  // Closes the innermost span. Returns its inclusive duration and the part
  // of it its direct children covered.
  struct Closed {
    std::int64_t duration_ns = 0;
    std::int64_t child_ns = 0;
  };
  Closed End() { return EndAt(NowNs()); }
  // The same with explicit timestamps (the selftest's fixed inputs).
  void BeginAt(const char* name, Layer layer, std::uint64_t request,
               std::int64_t now_ns);
  Closed EndAt(std::int64_t now_ns);

  // Reattributes self time measured inside a span of `from` to `to` (the
  // scheduler work a ClusterSim counter reports inside RunUntil, say).
  void MoveSelf(Layer from, Layer to, std::int64_t ns);
  // Time the thread spent waiting with nothing to do (not a layer).
  void AddIdle(std::int64_t ns) { idle_ns_ += ns; }

  [[nodiscard]] const std::string& thread_name() const { return thread_name_; }
  [[nodiscard]] std::int64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<int>(layer)];
  }
  [[nodiscard]] std::int64_t idle_ns() const { return idle_ns_; }
  [[nodiscard]] const std::vector<std::pair<const char*, NameStats>>& by_name()
      const {
    return by_name_;
  }
  [[nodiscard]] const std::vector<SpanRecord>& kept() const { return kept_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t closed() const { return closed_; }

 private:
  struct Frame {
    const char* name;
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t request;
    std::int32_t record;  // kept index or -1
  };

  std::string thread_name_;
  std::size_t keep_;
  std::vector<Frame> stack_;
  std::vector<SpanRecord> kept_;
  std::uint64_t dropped_ = 0;
  std::uint64_t closed_ = 0;
  std::array<std::int64_t, kLayerCount> self_ns_{};
  std::int64_t idle_ns_ = 0;
  std::vector<std::pair<const char*, NameStats>> by_name_;
};

// Owns every thread's log for one traced run.
class Tracer {
 public:
  explicit Tracer(std::size_t keep_per_thread = 200'000)
      : keep_(keep_per_thread) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Creates a log for the calling thread and makes it current there. The
  // log lives as long as the Tracer; call Detach before the thread ends
  // its traced work.
  SpanLog* Attach(const std::string& thread_name);
  static void Detach();
  // Makes `log` (from an earlier Attach on this thread, or nullptr) current.
  static void Reattach(SpanLog* log);

  [[nodiscard]] const std::deque<SpanLog>& logs() const { return logs_; }

  // Sum over all threads.
  [[nodiscard]] std::int64_t SelfNs(Layer layer) const;
  [[nodiscard]] NameStats Stats(std::string_view name) const;

  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  [[nodiscard]] std::string ChromeTraceJson() const;

 private:
  std::size_t keep_;
  std::mutex mutex_;
  std::deque<SpanLog> logs_;  // deque: attached pointers stay valid
};

// The calling thread's log, or nullptr when the thread is not traced.
SpanLog* CurrentLog();

// Spans closed so far on the calling thread's log (0 when untraced).
std::uint64_t ClosedSpans();

// What recording one span costs where the rep runs, in ns: a timed loop of
// Begin/End pairs on a scratch log that keeps every record (the dearer case).
double MeasureSpanCostNs();

// RAII span on the calling thread's log; a no-op when untraced.
class Scope {
 public:
  Scope(const char* name, Layer layer, std::uint64_t request = 0)
      : log_(CurrentLog()) {
    if (log_ != nullptr) log_->Begin(name, layer, request);
  }
  ~Scope() {
    if (log_ != nullptr) log_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace ecobench
