// Multi-resolution time-series store for the observability plane.
//
// A TimeSeries is a small set of fixed-capacity ring buffers: level 0 holds
// raw samples, level 1 holds 10x rollups, level 2 holds 100x rollups (the
// fanout is configurable). Every sample keeps {t0, t1, min, max, sum, count}
// so spikes survive compaction — a 1-sample power excursion is still visible
// in the coarsest rollup's max, and averages can be reconstructed from
// sum/count at any resolution.
//
// Rollups are built from a pending aggregation bucket per level, fed on every
// Push — they do NOT depend on ring eviction, so the coarse levels keep a
// longer history than the raw ring even after old raw samples are dropped.
// Evicting a sample from a full ring bumps the store-wide dropped counter;
// completing a rollup bucket bumps the compaction counter.
//
// TimeSeriesStore attaches series to MetricsRegistry handles (Counter/Gauge)
// or to arbitrary probe callbacks, and samples them all on SampleAll(t).
// ClusterSim drives SampleAll from a sim-time event, so the recorded
// trajectories are functions of simulated time only and therefore
// byte-identical across worker-pool sizes, like the Tracer. All public
// methods lock one mutex: the sim thread samples while a subd shard thread
// serves /timeseries queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/telemetry/metrics.hpp"

namespace eco::telemetry {

// One retained sample: the [t0, t1] span it covers and the min/max/sum/count
// of the raw values merged into it. A raw (level-0) sample has t0 == t1 and
// count == 1.
struct TsSample {
  double t0 = 0.0;
  double t1 = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
};

struct TimeSeriesOptions {
  // Ring capacity per resolution level, in samples.
  std::size_t capacity = 512;
  // Rollup fanout: level r+1 aggregates `fanout` level-r samples.
  int fanout = 10;
};

class TimeSeries {
 public:
  static constexpr int kResolutions = 3;

  explicit TimeSeries(TimeSeriesOptions options = {});

  struct PushStats {
    std::uint64_t compactions = 0;
    std::uint64_t dropped = 0;
  };

  // Appends a raw sample and feeds the rollup buckets. `t` must be
  // non-decreasing across calls.
  PushStats Push(double t, double value);

  // Samples at `resolution` (0 = raw .. kResolutions-1 = coarsest), oldest
  // first. Includes the partially-filled pending bucket of rollup levels so
  // the freshest data is visible at every resolution.
  [[nodiscard]] std::vector<TsSample> Samples(int resolution) const;

  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }

 private:
  struct Ring {
    std::vector<TsSample> buf;
    std::size_t next = 0;   // slot the next sample lands in
    std::size_t count = 0;  // live samples (<= capacity)
  };

  void Append(int level, const TsSample& sample, PushStats* stats);

  TimeSeriesOptions options_;
  Ring rings_[kResolutions];
  TsSample pending_[kResolutions - 1]{};
  int pending_n_[kResolutions - 1] = {0, 0};
  std::uint64_t pushed_ = 0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions options = {});

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  // Publishes the store's own resource counters into `registry`:
  //   eco_ts_series (gauge), eco_ts_samples_total, eco_ts_compactions_total,
  //   eco_ts_dropped_total (counters).
  void BindSelfMetrics(MetricsRegistry* registry);

  // Attach a series to a registry handle (created if absent; handles are
  // stable for the registry's lifetime). First registration of a name wins;
  // re-registering is a no-op.
  void TrackCounter(MetricsRegistry& registry, const std::string& name);
  void TrackGauge(MetricsRegistry& registry, const std::string& name);
  // Attach a series to an arbitrary probe, e.g. ClusterSim's instantaneous
  // cluster watts. The probe is invoked during SampleAll.
  void TrackProbe(const std::string& name, std::function<double()> probe);

  // Samples every tracked series at sim-time `t`. Called from the sim
  // thread; concurrent readers are safe.
  void SampleAll(double t);

  [[nodiscard]] std::vector<std::string> Names() const;
  [[nodiscard]] bool Has(const std::string& name) const;
  // Empty vector when the name is unknown or the resolution out of range.
  [[nodiscard]] std::vector<TsSample> Samples(const std::string& name,
                                              int resolution) const;
  // {"name":..., "resolution":..., "samples":[{t0,t1,min,max,sum,count}...]}
  // Deterministic: JsonObject is a std::map. Null when the name is unknown.
  [[nodiscard]] Json QueryJson(const std::string& name, int resolution) const;
  // Every series at every resolution, keyed by name then "r0"/"r1"/"r2".
  [[nodiscard]] Json DumpJson() const;

  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::uint64_t samples_total() const;
  [[nodiscard]] std::uint64_t compactions_total() const;
  [[nodiscard]] std::uint64_t dropped_total() const;

 private:
  struct Series {
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    std::function<double()> probe;
    TimeSeries data;

    explicit Series(TimeSeriesOptions options) : data(options) {}
  };

  void Track(const std::string& name, Series series);

  TimeSeriesOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;  // sorted: deterministic iteration
  std::uint64_t samples_total_ = 0;
  std::uint64_t compactions_total_ = 0;
  std::uint64_t dropped_total_ = 0;
  Gauge* metric_series_ = nullptr;
  Counter* metric_samples_ = nullptr;
  Counter* metric_compactions_ = nullptr;
  Counter* metric_dropped_ = nullptr;
};

}  // namespace eco::telemetry
