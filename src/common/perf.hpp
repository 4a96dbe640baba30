// Lightweight wall-clock instrumentation for hot paths.
//
// ScopedTimer accumulates elapsed nanoseconds into a caller-owned counter on
// scope exit (in the spirit of the ScopedChrono idiom), so a subsystem can
// keep cheap always-on timing totals without a profiler. Counters are plain
// integers: single-threaded hot paths should not pay for atomics. Totals
// that should be exported (ClusterSim's eco_sched_*_ns_total) use the
// registry-backed telemetry::ScopedCounterTimer instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace eco {

// Monotonic nanosecond clock reading (steady, suitable for intervals only).
[[nodiscard]] std::uint64_t NowNanos();

// Adds the scope's elapsed wall time to `*sink_ns` on destruction. The sink
// must outlive the timer. A null sink makes the timer a no-op, so call sites
// can keep one unconditional ScopedTimer and decide at runtime.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::uint64_t* sink_ns)
      : sink_(sink_ns), start_(sink_ns != nullptr ? NowNanos() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (sink_ != nullptr) *sink_ += NowNanos() - start_;
  }

 private:
  std::uint64_t* sink_;
  std::uint64_t start_;
};

// "1.234 ms" / "567 us" / "89 ns" — for bench and stats output.
[[nodiscard]] std::string FormatNanos(std::uint64_t ns);

}  // namespace eco
