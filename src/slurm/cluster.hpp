// ClusterSim — the slurmctld stand-in.
//
// Owns the event queue, the nodes, the job table, the plugin stack, the
// priority/backfill policies and the accounting database. The public surface
// mirrors the Slurm commands the paper touches: Submit() is sbatch (runs the
// job-submit plugin pipeline before queueing, §3.1.1), Queue() is squeue,
// GetJob() is scontrol show job, accounting() is sacct/slurmdbd, and
// RunJobToCompletion() is srun's blocking behaviour.
//
// One scheduler engine (see DESIGN.md, "Scheduler complexity"): a
// PendingIndex + NodeTimeline + fair-share tracker per partition, so
// dispatch cost scales with what it starts, not with queue depth, and a
// backlog in one partition cannot stall another. Partitions with disjoint
// node sets plan concurrently on the shared ThreadPool; overlapping
// partitions fall back to a deterministic serial walk in partition-config
// order. Either way the schedule is bitwise identical to the fixed-order
// serial walk at any pool size. The test suite checks the planner against
// a sort-everything reference planner (tests/ref_sched.hpp) and whole
// schedules against golden files (tests/golden/sched/).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/sim_clock.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "slurm/accounting.hpp"
#include "slurm/energy_market.hpp"
#include "slurm/job.hpp"
#include "slurm/node_sim.hpp"
#include "slurm/plugin_registry.hpp"
#include "slurm/sched_index.hpp"
#include "slurm/scheduler.hpp"

namespace eco {
class ThreadPool;
}  // namespace eco

namespace eco::telemetry {
class TimeSeriesStore;
}  // namespace eco::telemetry

namespace eco::slurm {

class EnergyLedger;

// A Slurm partition: a named queue with its own time-limit policy and node
// set (slurm.conf's `PartitionName=... Nodes=...`).
struct PartitionConfig {
  std::string name = "batch";
  double max_time_s = 7 * 24 * 3600.0;  // requests above this are clamped
  bool is_default = true;
  // Nodes this partition owns, as inclusive [first, last] node-index ranges
  // (out-of-range bounds are clamped to the cluster). Empty = every node —
  // the historical behaviour, and what the default partition usually wants.
  // Partitions may overlap; overlapping partitions schedule serially.
  std::vector<std::pair<int, int>> node_ranges;
  // Fair-share decay half-life for this partition's tracker, seconds.
  // 0 = inherit ClusterConfig::fairshare_half_life_s.
  double fairshare_half_life_s = 0.0;
};

struct ClusterConfig {
  int nodes = 1;
  NodeParams node{};
  // At least one partition; the first `is_default` one (or the first entry)
  // catches jobs submitted without an explicit partition.
  std::vector<PartitionConfig> partitions = {PartitionConfig{}};
  SchedulerPolicy policy = SchedulerPolicy::kBackfill;
  bool use_multifactor = true;  // false = pure submit-order FIFO priority
  MultifactorWeights priority_weights{};
  // Fair-share decay half-life (Slurm's PriorityDecayHalfLife), seconds.
  // Previously hard-coded to 7 days inside FairShareTracker; partition
  // policies override it via PartitionConfig::fairshare_half_life_s.
  double fairshare_half_life_s = FairShareTracker::kDefaultHalfLifeSeconds;
  // §6.2.4: hold jobs whose comment contains "green" until the energy market
  // is green.
  bool enable_green_hold = false;
  EnergyMarketParams market{};
  GreenWindowParams green{};
  // Cluster-wide power budget in watts (0 = uncapped). With a cap set, the
  // scheduler will not start a job whose estimated draw would push the
  // cluster past the budget — the power-constrained scheduling substrate of
  // the related work [12] (Kumbhare et al., "Dynamic Power Management for
  // Value-Oriented Schedulers in Power-Constrained HPC Systems").
  double power_cap_watts = 0.0;
  // Coalesce dispatch requests landing at one sim timestamp into a single
  // scheduling pass, run as its own event (slurmctld's deferred sched loop).
  // Off by default: every submit/completion dispatches inline, as before.
  bool defer_dispatch = false;
  // Examine at most this many backfill candidates per pass (Slurm's
  // bf_max_job_test). 0 = unlimited: every pending job is considered.
  int backfill_max_job_test = 0;
  // Pool the scheduler plans disjoint partitions on. nullptr selects
  // the process-wide ThreadPool::Global(). The schedule is pool-size
  // invariant; the pool only changes wall-clock time.
  ThreadPool* pool = nullptr;
  // Registry the scheduler publishes its counters/histograms to. nullptr
  // (default) = the cluster owns a private registry, so per-partition metric
  // families from two ClusterSims in one process never collide.
  telemetry::MetricsRegistry* metrics = nullptr;
  // Job-lifecycle tracer. nullptr (default) = no tracing whatsoever; an
  // attached-but-disabled tracer costs one relaxed load per site.
  telemetry::Tracer* tracer = nullptr;
  // Observability plane: a time-series store sampled every
  // timeseries_resolution_s of SIM time from the event loop (cluster watts,
  // pending/running depth, plus whatever the caller tracks). Both must be
  // set; trajectories are functions of sim time only, so they are identical
  // at any pool size.
  telemetry::TimeSeriesStore* timeseries = nullptr;
  double timeseries_resolution_s = 0.0;
  // Per-job energy attribution ledger: when set, the cluster installs an
  // energy tap on every node and maintains charge spans over the job
  // lifecycle, filling JobRecord::attributed_joules at finalize.
  EnergyLedger* energy_ledger = nullptr;
};

// The scheduler's registry handles for one metric family. Bind() registers
// the family ("" = the cluster-wide aggregate, otherwise every metric name
// carries a partition="..." label). Per partition, dispatch_calls /
// dispatch_ns count that partition's own planning passes, so its pass
// latency is dispatch_ns / dispatch_calls. Read the values through
// ClusterSim::metrics() or commands::Sdiag(). Counter handles are safe to
// bump from pool workers (parallel planning).
struct SchedMetricSet {
  telemetry::Counter* submit_calls = nullptr;
  telemetry::Counter* submit_ns = nullptr;
  telemetry::Counter* dispatch_calls = nullptr;
  telemetry::Counter* dispatch_ns = nullptr;
  // Dispatch requests absorbed into an already-scheduled deferred pass.
  telemetry::Counter* dispatch_coalesced = nullptr;
  // Queue entries the planner examined (popped candidates only).
  telemetry::Counter* plan_candidates = nullptr;
  telemetry::Counter* jobs_started = nullptr;
  // Starts planned past a blocked head.
  telemetry::Counter* backfill_planned = nullptr;
  telemetry::Gauge* pending_peak = nullptr;   // deepest pending queue
  telemetry::Gauge* timeline_peak = nullptr;  // most concurrent running
  // Queue-wait seconds observed at each job start (sdiag's per-partition
  // queue histogram).
  telemetry::Histogram* wait_seconds = nullptr;

  void Bind(telemetry::MetricsRegistry& registry, const std::string& partition);
  void Reset() const;
};

class ClusterSim;

// Reads one scheduler metric from cluster.metrics(): `metric` is the name
// after "eco_sched_" ("jobs_started_total", "pending_peak", ...), and a
// non-empty `partition` selects that partition's family instead of the
// cluster-wide one. Counters and gauges read alike; a name that was never
// registered (an unknown partition, say) reads 0.
[[nodiscard]] std::uint64_t ReadSchedMetric(const ClusterSim& cluster,
                                            const std::string& metric,
                                            const std::string& partition = "");

class ClusterSim {
 public:
  explicit ClusterSim(ClusterConfig config);
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] PluginRegistry& plugins() { return plugins_; }
  [[nodiscard]] AccountingDb& accounting() { return accounting_; }
  [[nodiscard]] const EnergyMarket& market() const { return market_; }
  [[nodiscard]] SimTime Now() const { return queue_.now(); }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] NodeSim& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] const NodeSim& node(std::size_t i) const { return *nodes_[i]; }
  [[nodiscard]] int FreeNodes() const;
  // Instantaneous true power draw summed over all nodes.
  [[nodiscard]] double ClusterWatts() const;

  // sbatch: validates, runs the plugin pipeline, queues, and triggers a
  // scheduling pass. Returns the job id.
  Result<JobId> Submit(JobRequest request);

  // Batched sbatch: queues every request, then runs ONE scheduling pass.
  // Per-request results line up with the input; a rejected request does not
  // stop the rest. This is how WorkloadGen pumps 10^5..10^6 jobs without a
  // dispatch per submission.
  std::vector<Result<JobId>> SubmitBatch(std::vector<JobRequest> requests);

  // sbatch --array=0-(count-1): submits `count` independent tasks sharing an
  // array id; each task's name gets the Slurm-style "_<index>" suffix and
  // every task goes through the plugin pipeline individually.
  Result<std::vector<JobId>> SubmitArray(const JobRequest& request, int count);

  // Estimated steady-state draw of a job at its requested configuration
  // (used by the power-cap policy; exposed for tests and tooling).
  [[nodiscard]] double EstimateJobWatts(const JobRequest& request) const;

  [[nodiscard]] const std::vector<PartitionConfig>& partitions() const {
    return config_.partitions;
  }
  // The partition a request lands in (empty name -> the default); nullptr
  // for an unknown partition name.
  [[nodiscard]] const PartitionConfig* ResolvePartition(
      const std::string& name) const;
  // Node indices owned by partitions()[i], sorted ascending.
  [[nodiscard]] const std::vector<std::size_t>& partition_nodes(
      std::size_t i) const;
  // True when any node belongs to more than one partition (forces dispatch
  // onto the serial partition walk).
  [[nodiscard]] bool partitions_overlap() const { return partitions_overlap_; }
  // Idle nodes within one partition's node set; -1 for an unknown name.
  [[nodiscard]] int FreeNodesIn(const std::string& partition) const;
  // Effective fair-share half-life of one partition's tracker ("" = the
  // default partition); 0 for an unknown name. Exposes the
  // ClusterConfig/PartitionConfig plumbing for tests and tooling.
  [[nodiscard]] double FairshareHalfLife(const std::string& partition) const;

  // scancel.
  Status Cancel(JobId id);

  // squeue: pending + held + running jobs.
  [[nodiscard]] std::vector<JobRecord> Queue() const;
  [[nodiscard]] std::optional<JobRecord> GetJob(JobId id) const;

  // Drains the event queue (all submitted jobs run to completion).
  void RunUntilIdle();
  // Advances simulated time to `horizon`, processing due events.
  void RunUntil(SimTime horizon);

  // srun-style convenience: submit and simulate until this job finishes.
  // Fails if the job is rejected or ends in a non-completed state.
  Result<JobRecord> RunJobToCompletion(JobRequest request);

  // Telemetry registry this cluster publishes into (the config-provided one
  // or the cluster's private default).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() const {
    return *metrics_;
  }
  [[nodiscard]] telemetry::Tracer* tracer() const { return tracer_; }
  // Observability plane accessors (nullptr when not configured).
  [[nodiscard]] telemetry::TimeSeriesStore* timeseries() const {
    return config_.timeseries;
  }
  [[nodiscard]] EnergyLedger* energy_ledger() const {
    return config_.energy_ledger;
  }
  // Bills every idle node's pending idle-gap energy to the taps (and thus
  // the ledger). Call after a drain so trailing idle energy is accounted;
  // mid-run callers (e.g. a polling loop) only flush nodes currently idle.
  void FlushIdleEnergy();
  // Track names for Tracer::ChromeTraceJson(): track 0 is the scheduler
  // lane, tracks 1..N are the node lanes the job-run spans land on.
  [[nodiscard]] std::vector<std::string> TelemetryTrackNames() const;

  // Zeroes this cluster's eco_sched_* families (aggregate and per
  // partition); other publishers into a shared registry keep their values.
  void ResetSchedStats();

 private:
  struct RunningJob {
    std::vector<std::size_t> node_indices;
    std::size_t nodes_remaining = 0;
    RunStats aggregate{};
    std::uint64_t timeout_event = 0;
  };

  // One partition's slice of the scheduling state. The whole hot path is
  // sharded on these: a dispatch pass touches only the shards with pending
  // work, and a million-job backlog in one shard never enters another
  // shard's planning loop.
  struct PartitionShard {
    PartitionShard(const MultifactorPriority* priority, bool multifactor,
                   double fairshare_half_life_s)
        : fairshare(fairshare_half_life_s),
          pending(priority, &fairshare, multifactor) {}
    const PartitionConfig* config = nullptr;
    std::vector<std::size_t> node_indices;  // sorted ascending
    std::vector<char> member;               // per-node membership bitmap
    FairShareTracker fairshare;             // per-partition decayed usage
    PendingIndex pending;
    NodeTimeline timeline;   // overlap-aware release horizon
    SchedMetricSet metrics;  // partition="<name>" registry family
  };

  // Validate + plugin pipeline + queue, WITHOUT a scheduling pass.
  Result<JobId> Enqueue(JobRequest request);
  // Dispatch now, or coalesce into one same-timestamp event (defer mode).
  void RequestDispatch();
  // One scheduling pass over every shard with pending work.
  void Dispatch();
  // One shard's planning pass over its `free_nodes` idle nodes. Touches
  // only shard-local state, so disjoint shards may run this concurrently.
  [[nodiscard]] IndexedPlan PlanShard(PartitionShard& shard, int free_nodes);
  // Executes a shard's plan: power cap, node pick, start, dequeue. Returns
  // the number of jobs it had to FAIL (power cap on an idle cluster, node
  // start failure) so the parallel dispatch can replan later shards.
  int ExecutePlan(PartitionShard& shard, const IndexedPlan& plan);
  void RemoveFromPending(JobId id);
  // Index the job, park it on unmet dependencies, or doom it.
  void EnterPending(JobRecord& job);
  // Wake or doom jobs waiting on `id` after it finalized.
  void NotifyDependents(JobId id, bool completed);
  [[nodiscard]] IndexedJob ToIndexedJob(const JobRecord& job) const;
  Status StartJob(JobRecord& job, const std::vector<std::size_t>& node_idx);
  void OnNodeDone(JobId id, const RunStats& stats);
  void OnTimeout(JobId id);
  // `reason` lands in the trace's end/doom event ("" for a normal end):
  // DependencyNeverSatisfied, TimeLimit, Cancelled, PowerCap, StartFailed.
  void FinalizeJob(JobRecord& job, JobState state, const char* reason = "");
  // One relaxed load; the guard every trace site uses (Logger::Enabled
  // shape, so a disabled or absent tracer costs a branch).
  [[nodiscard]] bool TraceEnabled() const {
    return tracer_ != nullptr && tracer_->enabled();
  }
  // Instant lifecycle event on the scheduler track (call only from the
  // serial sim thread — never from a parallel PlanShard — so the trace is
  // pool-size invariant).
  void TraceLifecycle(const char* name, const JobRecord& job,
                      const char* reason = nullptr);
  // Starts the SampleAll observer task if a store is configured and the
  // task is not already armed.
  void ArmTimeseriesSampler();
  // EnergyLedger::Publish() on the attached ledger, if any: run at every
  // return of the sim thread to its caller (the ledger's publish rule).
  void PublishLedger();
  [[nodiscard]] PartitionShard& ShardOf(const JobRecord& job);
  [[nodiscard]] int FreeNodesInShard(const PartitionShard& shard) const;
  [[nodiscard]] std::vector<std::size_t> PickFreeNodes(
      const PartitionShard& shard, int count) const;
  void RemoveFromTimelines(JobId id);
  [[nodiscard]] std::uint64_t PendingDepth() const;

  ClusterConfig config_;
  EventQueue queue_;
  PluginRegistry plugins_;
  AccountingDb accounting_;
  EnergyMarket market_;
  GreenWindowPolicy green_policy_;
  MultifactorPriority priority_;

  std::vector<std::unique_ptr<NodeSim>> nodes_;
  // Shards line up with config_.partitions; unique_ptr keeps the fair-share
  // pointer handed to each shard's PendingIndex stable.
  std::vector<std::unique_ptr<PartitionShard>> shards_;
  std::unordered_map<std::string, std::size_t> shard_by_name_;
  bool partitions_overlap_ = false;
  std::map<JobId, JobRecord> jobs_;
  std::map<JobId, RunningJob> running_;
  // Dependency tables: jobs parked on unmet afterok deps
  // (id -> count still outstanding) and the reverse edges that wake them.
  std::unordered_map<JobId, int> waiting_deps_;
  std::unordered_map<JobId, std::vector<JobId>> dependents_;
  bool dispatch_scheduled_ = false;  // a deferred pass is already queued
  std::uint64_t ts_sampler_ = 0;     // the SampleAll observer task
  // Telemetry: the private fallback registry, the registry actually in use,
  // the optional tracer, the cluster-wide metric family, and the
  // node-name -> trace-track map (track 0 = scheduler).
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
  SchedMetricSet metrics_set_;
  std::unordered_map<std::string, int> node_track_by_name_;
  JobId next_id_ = 1;
  std::uint64_t submit_counter_ = 0;
  std::map<JobId, std::uint64_t> submit_order_;
};

}  // namespace eco::slurm
