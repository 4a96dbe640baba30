// Shared pieces of the end-to-end benchmark: one rep's options and result,
// the statistics every workload reports, and the counter-backed attribution
// of scheduler time inside sim-layer spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry/metrics.hpp"
#include "spans.hpp"

namespace ecobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int rep = 0;          // rep 0 of a run does the once-per-run extras
  bool traced = false;  // wrappers + decorators + spans installed
  bool smoke = false;   // tiny inputs: correctness only
  std::string workdir;  // private, empty directory owned by this rep
  std::string trace_out;
};

// One rep of one workload, as the rep process reports it.
struct RepResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // correctness checks that did not hold
  double setup_s = 0.0;               // process start -> first timed operation
  double wall_s = 0.0;                // the measured window
  // The compute-bound part of the window (no paced open loop), over which
  // the tracing overhead is measured.
  double compute_s = 0.0;
  std::uint64_t compute_spans = 0;  // spans the sim thread closed in it
  // The set-up, and the phase ops_per_s measures, each cut into segments
  // that are the same work in every rep of one seed (the harness takes each
  // segment's fastest rep), and the work (jobs or applications) the phase's
  // segments hold together.
  std::vector<double> setup_segment_s;
  std::vector<double> segment_s;
  double work = 0.0;
  std::map<std::string, double> metrics;
  // Values that must repeat bit-for-bit across reps of one seed.
  std::map<std::string, double> exact;
  std::string digest;  // of the generated inputs
  // Traced runs: self seconds per layer over the measured window, all
  // threads, plus "idle" (the sim thread waiting with nothing to do).
  std::map<std::string, double> layer_self_s;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// Brackets the measured window of one rep. It times the window and takes
// the peak resident set at its end, so what a rep does after the window
// (the fleet's plugin-off twin) does not count. Traced, it also takes
// per-layer self time over the window and the sim thread's coverage: the
// share of the window's wall time that product-layer self time and idle
// waiting account for on the sim thread (the rest is benchmark loop glue
// and time no span covers).
class Window {
 public:
  explicit Window(const Tracer* tracer);
  void Close(RepResult& result);

 private:
  struct Totals {
    std::int64_t self[kLayerCount] = {};
    std::int64_t idle = 0;
  };
  Totals Sum(bool main_only) const;

  const Tracer* tracer_;
  const SpanLog* main_;
  std::int64_t start_ns_;
  Totals all_start_;
  Totals main_start_;
};

// Linear interpolation between closest ranks (numpy's default): q in [0,1].
// Empty input -> 0.
double Percentile(std::vector<double> values, double q);

// Appends to `segments` the stretches, in seconds, from `from_ns` to each of
// `ends` in turn and from the last of them to `to_ns`.
void AppendSegments(std::int64_t from_ns, const std::vector<std::int64_t>& ends,
                    std::int64_t to_ns, std::vector<double>& segments);

// 64-bit FNV-1a, for input digests.
class Digest {
 public:
  void Add(const void* data, std::size_t size);
  void Add(const std::string& text) { Add(text.data(), text.size()); }
  template <typename T>
  void AddValue(const T& value) {
    Add(&value, sizeof(value));
  }
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// A ClusterSim's own scheduler time, read from the registry it publishes
// into: enqueue (eco_sched_submit_ns_total, plugin time included) plus
// dispatch passes (eco_sched_dispatch_ns_total).
class SchedClock {
 public:
  explicit SchedClock(eco::telemetry::MetricsRegistry& registry);
  [[nodiscard]] std::int64_t Ns() const;

 private:
  const eco::telemetry::Counter* submit_ns_;
  const eco::telemetry::Counter* dispatch_ns_;
};

// A sim-layer span (RunUntil, a simulated benchmark run) whose scheduler
// share is moved to the sched layer when it closes: the counter delta over
// the span, minus what its child spans (the plugin, inside Enqueue)
// already cover.
class SimScope {
 public:
  SimScope(const char* name, const SchedClock* clock, std::uint64_t request = 0);
  ~SimScope();
  SimScope(const SimScope&) = delete;
  SimScope& operator=(const SimScope&) = delete;

 private:
  SpanLog* log_;
  const SchedClock* clock_;
  std::int64_t sched_start_ = 0;
};

// Registry reads (0 when the metric was never registered).
std::uint64_t CounterValue(const eco::telemetry::MetricsRegistry& registry,
                           const std::string& name);
double GaugeValue(const eco::telemetry::MetricsRegistry& registry,
                  const std::string& name);

// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace ecobench
