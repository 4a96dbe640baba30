#include "slurm/cluster.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/perf.hpp"
#include "common/telemetry/timeseries.hpp"
#include "common/thread_pool.hpp"
#include "slurm/energy_ledger.hpp"
#include "slurm/job_desc.hpp"

namespace eco::slurm {

namespace {

// One registry family per SchedMetricSet handle; "" binds the unlabelled
// cluster-wide names, anything else appends partition="<name>".
std::string SchedName(const std::string& base, const std::string& partition) {
  if (partition.empty()) return base;
  return telemetry::LabeledName(base, "partition", partition);
}

}  // namespace

void SchedMetricSet::Bind(telemetry::MetricsRegistry& registry,
                          const std::string& partition) {
  submit_calls =
      registry.GetCounter(SchedName("eco_sched_submit_calls_total", partition));
  submit_ns =
      registry.GetCounter(SchedName("eco_sched_submit_ns_total", partition));
  dispatch_calls = registry.GetCounter(
      SchedName("eco_sched_dispatch_calls_total", partition));
  dispatch_ns =
      registry.GetCounter(SchedName("eco_sched_dispatch_ns_total", partition));
  dispatch_coalesced = registry.GetCounter(
      SchedName("eco_sched_dispatch_coalesced_total", partition));
  plan_candidates = registry.GetCounter(
      SchedName("eco_sched_plan_candidates_total", partition));
  jobs_started =
      registry.GetCounter(SchedName("eco_sched_jobs_started_total", partition));
  backfill_planned = registry.GetCounter(
      SchedName("eco_sched_backfill_planned_total", partition));
  pending_peak =
      registry.GetGauge(SchedName("eco_sched_pending_peak", partition));
  timeline_peak =
      registry.GetGauge(SchedName("eco_sched_timeline_peak", partition));
  wait_seconds = registry.GetHistogram(
      SchedName("eco_sched_wait_seconds", partition),
      {1.0, 10.0, 60.0, 600.0, 3600.0, 86400.0});
}

std::uint64_t ReadSchedMetric(const ClusterSim& cluster,
                              const std::string& metric,
                              const std::string& partition) {
  const std::string name = SchedName("eco_sched_" + metric, partition);
  if (const telemetry::Counter* counter = cluster.metrics().FindCounter(name)) {
    return counter->Value();
  }
  if (const telemetry::Gauge* gauge = cluster.metrics().FindGauge(name)) {
    return static_cast<std::uint64_t>(gauge->Value());
  }
  return 0;
}

void SchedMetricSet::Reset() const {
  submit_calls->Reset();
  submit_ns->Reset();
  dispatch_calls->Reset();
  dispatch_ns->Reset();
  dispatch_coalesced->Reset();
  plan_candidates->Reset();
  jobs_started->Reset();
  backfill_planned->Reset();
  pending_peak->Reset();
  timeline_peak->Reset();
  wait_seconds->Reset();
}

ClusterSim::ClusterSim(ClusterConfig config)
    : config_(config),
      market_(config.market),
      green_policy_(&market_, config.green),
      priority_(config.priority_weights,
                config.nodes * config.node.machine.cpu.cores) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = config_.tracer;
  metrics_set_.Bind(*metrics_, "");

  for (int i = 0; i < config_.nodes; ++i) {
    std::string name = config_.node.machine.hostname;
    if (config_.nodes > 1) name += "-" + std::to_string(i);
    node_track_by_name_.emplace(name, i + 1);  // track 0 = scheduler lane
    nodes_.push_back(std::make_unique<NodeSim>(name, config_.node, &queue_));
  }

  // One shard per partition. An empty node_ranges list means the partition
  // owns every node (the historical single-queue behaviour).
  shards_.reserve(config_.partitions.size());
  for (std::size_t p = 0; p < config_.partitions.size(); ++p) {
    const PartitionConfig& partition = config_.partitions[p];
    const double half_life = partition.fairshare_half_life_s > 0.0
                                 ? partition.fairshare_half_life_s
                                 : config_.fairshare_half_life_s;
    auto shard = std::make_unique<PartitionShard>(
        &priority_, config_.use_multifactor, half_life);
    shard->config = &config_.partitions[p];
    shard->member.assign(nodes_.size(), 0);
    if (partition.node_ranges.empty()) {
      std::fill(shard->member.begin(), shard->member.end(), char{1});
    } else {
      for (const auto& [first, last] : partition.node_ranges) {
        const int lo = std::max(0, first);
        const int hi = std::min(last, static_cast<int>(nodes_.size()) - 1);
        for (int i = lo; i <= hi; ++i) shard->member[i] = 1;
      }
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!shard->member[i]) continue;
      shard->node_indices.push_back(i);
      nodes_[i]->AddPartition(partition.name);
    }
    shard->metrics.Bind(*metrics_, partition.name);
    shard_by_name_.emplace(partition.name, p);
    shards_.push_back(std::move(shard));
  }
  if (shards_.size() > 1) {
    std::vector<int> owners(nodes_.size(), 0);
    for (const auto& shard : shards_) {
      for (const std::size_t i : shard->node_indices) {
        if (++owners[i] > 1) partitions_overlap_ = true;
      }
    }
  }

  // Energy attribution: every node's accruals (run ticks and idle gaps)
  // flow into the ledger's per-node occupancy split. Taps fire on the
  // serial sim thread in event order, so attribution is pool-size invariant.
  if (config_.energy_ledger != nullptr) {
    config_.energy_ledger->Bind(metrics_);
    config_.energy_ledger->SetNodeCount(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->AddEnergyTap(
          [this, i](double system_watts, double /*cpu_watts*/, double dt) {
            config_.energy_ledger->OnEnergySample(i, system_watts * dt);
          });
    }
  }

  // Time-series store: default cluster-level probes; callers add more via
  // TrackCounter/TrackGauge/TrackProbe before submitting work.
  if (config_.timeseries != nullptr && config_.timeseries_resolution_s > 0.0) {
    config_.timeseries->BindSelfMetrics(metrics_);
    // Reported (event-sampled) watts, not ClusterWatts(): an O(nodes) sum
    // of cached values, cheap enough for 1 Hz sim sampling on 256 nodes.
    config_.timeseries->TrackProbe("eco_cluster_watts", [this] {
      double watts = 0.0;
      for (const auto& node : nodes_) watts += node->ReportedWatts();
      return watts;
    });
    config_.timeseries->TrackProbe("eco_cluster_running_jobs", [this] {
      return static_cast<double>(running_.size());
    });
    config_.timeseries->TrackProbe("eco_cluster_pending_jobs", [this] {
      return static_cast<double>(PendingDepth());
    });
  }
}

void ClusterSim::ArmTimeseriesSampler() {
  if (config_.timeseries == nullptr || config_.timeseries_resolution_s <= 0.0 ||
      queue_.IsLive(ts_sampler_)) {
    return;
  }
  const double period = config_.timeseries_resolution_s;
  ts_sampler_ = queue_.ScheduleEvery(
      queue_.now() + period, period,
      [this](SimTime t) { config_.timeseries->SampleAll(t); },
      EventQueue::TaskKind::kObserver);
}

void ClusterSim::FlushIdleEnergy() {
  for (const auto& node : nodes_) node->FlushIdleEnergy();
}

double ClusterSim::ClusterWatts() const {
  double watts = 0.0;
  for (const auto& node : nodes_) watts += node->SystemWatts();
  return watts;
}

double ClusterSim::EstimateJobWatts(const JobRequest& request) const {
  const hw::PowerModel model(config_.node.power);
  const auto& cpu = config_.node.machine.cpu;
  const int nodes = std::max(1, request.min_nodes);
  const int tasks_per_node = std::max(1, request.num_tasks / nodes);
  const KiloHertz freq =
      request.cpu_freq_max > 0 ? cpu.NearestFrequency(request.cpu_freq_max)
                               : cpu.MaxFrequency();
  // Incremental draw over the idle node: the cap policy adds this to the
  // currently observed cluster power (which already includes idle nodes).
  // Steady state: fully utilised, thermally settled (~60 °C fans).
  const double busy =
      model.SystemPower(tasks_per_node, freq, request.threads_per_core > 1,
                        1.0, 60.0)
          .system_watts;
  const double idle = model.SystemPower(0, cpu.MinFrequency(), false, 0.0,
                                        model.params().fan_knee_celsius)
                          .system_watts;
  return std::max(0.0, busy - idle) * nodes;
}

Result<std::vector<JobId>> ClusterSim::SubmitArray(const JobRequest& request,
                                                   int count) {
  if (count < 1) {
    return Result<std::vector<JobId>>::Error("array: count must be >= 1");
  }
  std::vector<JobId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int task = 0; task < count; ++task) {
    JobRequest member = request;
    member.name = request.name + "_" + std::to_string(task);
    auto id = Submit(std::move(member));
    if (!id.ok()) {
      // Array semantics: reject the whole array on any member failure,
      // cancelling the members already queued.
      for (const JobId queued : ids) Cancel(queued);
      return Result<std::vector<JobId>>::Error(id.message());
    }
    ids.push_back(*id);
  }
  const JobId array_id = ids.front();
  for (int task = 0; task < count; ++task) {
    auto& job = jobs_.at(ids[static_cast<std::size_t>(task)]);
    job.array_job_id = array_id;
    job.array_task_id = task;
  }
  return ids;
}

int ClusterSim::FreeNodes() const {
  int free = 0;
  for (const auto& node : nodes_) {
    if (node->idle()) ++free;
  }
  return free;
}

int ClusterSim::FreeNodesInShard(const PartitionShard& shard) const {
  int free = 0;
  for (const std::size_t i : shard.node_indices) {
    if (nodes_[i]->idle()) ++free;
  }
  return free;
}

int ClusterSim::FreeNodesIn(const std::string& partition) const {
  const auto it = shard_by_name_.find(partition);
  if (it == shard_by_name_.end()) return -1;
  return FreeNodesInShard(*shards_[it->second]);
}

double ClusterSim::FairshareHalfLife(const std::string& partition) const {
  const PartitionConfig* resolved = ResolvePartition(partition);
  if (resolved == nullptr) return 0.0;
  const auto it = shard_by_name_.find(resolved->name);
  if (it == shard_by_name_.end()) return 0.0;
  return shards_[it->second]->fairshare.half_life_seconds();
}

const std::vector<std::size_t>& ClusterSim::partition_nodes(
    std::size_t i) const {
  return shards_.at(i)->node_indices;
}

void ClusterSim::ResetSchedStats() {
  // Zeroes this cluster's scheduler families only — other publishers into a
  // shared registry (eco plugin, thread pool) keep their values.
  metrics_set_.Reset();
  for (const auto& shard : shards_) shard->metrics.Reset();
}

std::vector<std::string> ClusterSim::TelemetryTrackNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size() + 1);
  names.emplace_back("scheduler");
  for (const auto& node : nodes_) names.push_back(node->name());
  return names;
}

void ClusterSim::TraceLifecycle(const char* name, const JobRecord& job,
                                const char* reason) {
  JsonObject args;
  args["job"] = Json(static_cast<long long>(job.id));
  args["partition"] = Json(job.request.partition);
  if (reason != nullptr && reason[0] != '\0') {
    args["reason"] = Json(std::string(reason));
  }
  tracer_->Instant(queue_.now(), name, "lifecycle", std::move(args));
}

ClusterSim::PartitionShard& ClusterSim::ShardOf(const JobRecord& job) {
  return *shards_[shard_by_name_.at(job.request.partition)];
}

std::vector<std::size_t> ClusterSim::PickFreeNodes(
    const PartitionShard& shard, int count) const {
  std::vector<std::size_t> out;
  for (const std::size_t i : shard.node_indices) {
    if (static_cast<int>(out.size()) >= count) break;
    if (nodes_[i]->idle()) out.push_back(i);
  }
  return out;
}

const PartitionConfig* ClusterSim::ResolvePartition(
    const std::string& name) const {
  if (config_.partitions.empty()) return nullptr;
  if (name.empty()) {
    for (const auto& partition : config_.partitions) {
      if (partition.is_default) return &partition;
    }
    return &config_.partitions.front();
  }
  for (const auto& partition : config_.partitions) {
    if (partition.name == name) return &partition;
  }
  return nullptr;
}

Result<JobId> ClusterSim::Submit(JobRequest request) {
  auto id = Enqueue(std::move(request));
  if (id.ok()) RequestDispatch();
  return id;
}

std::vector<Result<JobId>> ClusterSim::SubmitBatch(
    std::vector<JobRequest> requests) {
  std::vector<Result<JobId>> out;
  out.reserve(requests.size());
  // Single-partition clusters (the storm-ingest shape) know every request
  // lands in shard 0 — pre-size its index once instead of rehashing during
  // the burst. Multi-partition batches skip the hint rather than over-
  // reserving every shard by the full batch size.
  if (shards_.size() == 1) {
    shards_.front()->pending.Reserve(requests.size());
  }
  bool any_queued = false;
  for (auto& request : requests) {
    auto id = Enqueue(std::move(request));
    any_queued = any_queued || id.ok();
    out.push_back(std::move(id));
  }
  if (any_queued) RequestDispatch();
  return out;
}

Result<JobId> ClusterSim::Enqueue(JobRequest request) {
  telemetry::ScopedCounterTimer timer(metrics_set_.submit_ns);
  metrics_set_.submit_calls->Add(1);

  // Partition routing: an EMPTY name selects the default partition; any
  // non-empty name must match exactly, or the job is rejected like
  // slurmctld's "invalid partition specified". (A partition literally named
  // "batch" that is not the default is therefore honoured, not rerouted.)
  // Limits clamp the time limit.
  const PartitionConfig* partition = ResolvePartition(request.partition);
  if (partition == nullptr) {
    return Result<JobId>::Error("submit: invalid partition '" +
                                request.partition + "'");
  }
  request.partition = partition->name;
  request.time_limit_s = std::min(request.time_limit_s, partition->max_time_s);
  const std::size_t partition_index =
      static_cast<std::size_t>(partition - config_.partitions.data());
  PartitionShard* shard = shards_[partition_index].get();

  // Validation a real slurmctld does before plugins run. Node counts are
  // validated against the job's partition, not the whole cluster — a job
  // wider than its partition could never start.
  if (request.min_nodes < 1 ||
      request.min_nodes > static_cast<int>(shard->node_indices.size())) {
    return Result<JobId>::Error("submit: bad node count " +
                                std::to_string(request.min_nodes));
  }
  if (request.num_tasks < 1) {
    return Result<JobId>::Error("submit: num_tasks must be >= 1");
  }

  const JobId id = next_id_++;

  // The job-submit plugin pipeline sees (and may rewrite) the C descriptor.
  JobDescWrapper wrapper(request, id);
  const Status plugin_status =
      plugins_.RunJobSubmit(wrapper.desc(), request.user_id);
  if (!plugin_status.ok()) {
    return Result<JobId>::Error(plugin_status.message());
  }
  JobRequest effective = wrapper.ToRequest(request);

  // A plugin may have rewritten the partition; re-route (and re-validate the
  // node count) so the job lands in a shard that actually exists.
  if (effective.partition != request.partition) {
    const PartitionConfig* rewritten = ResolvePartition(effective.partition);
    if (rewritten == nullptr) {
      return Result<JobId>::Error("submit: invalid partition '" +
                                  effective.partition + "'");
    }
    effective.partition = rewritten->name;
    shard = shards_[static_cast<std::size_t>(rewritten -
                                             config_.partitions.data())]
                .get();
    if (effective.min_nodes < 1 ||
        effective.min_nodes > static_cast<int>(shard->node_indices.size())) {
      return Result<JobId>::Error("submit: bad node count " +
                                  std::to_string(effective.min_nodes));
    }
  }

  // Post-plugin validation against the hardware.
  const auto& cpu = config_.node.machine.cpu;
  if (effective.num_tasks % effective.min_nodes != 0) {
    return Result<JobId>::Error("submit: num_tasks not divisible by nodes");
  }
  const int tasks_per_node = effective.num_tasks / effective.min_nodes;
  if (tasks_per_node > cpu.cores) {
    return Result<JobId>::Error(
        "submit: " + std::to_string(tasks_per_node) + " tasks/node exceed " +
        std::to_string(cpu.cores) + " cores");
  }
  if (effective.threads_per_core < 1 ||
      effective.threads_per_core > cpu.threads_per_core) {
    return Result<JobId>::Error("submit: unsupported threads_per_core");
  }

  JobRecord record;
  record.id = id;
  record.submitted = request;
  record.request = effective;
  record.submit_time = queue_.now();
  record.eligible_time = queue_.now();
  record.state = JobState::kPending;

  submit_order_[id] = submit_counter_++;
  JobRecord& job = jobs_[id] = record;
  ArmTimeseriesSampler();
  shard->metrics.submit_calls->Add(1);
  if (TraceEnabled()) TraceLifecycle("submit", job);

  // Green-window hold (§6.2.4).
  const bool wants_green =
      effective.comment.find("green") != std::string::npos;
  if (config_.enable_green_hold && wants_green &&
      !green_policy_.IsGreen(queue_.now())) {
    job.state = JobState::kHeld;
    job.eligible_time = green_policy_.NextGreenTime(queue_.now());
    queue_.ScheduleAt(job.eligible_time, [this, id](SimTime) {
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.state != JobState::kHeld) return;
      it->second.state = JobState::kPending;
      if (TraceEnabled()) {
        TraceLifecycle("eligible", it->second, "GreenWindow");
      }
      EnterPending(it->second);
      RequestDispatch();
    });
    if (TraceEnabled()) TraceLifecycle("hold", job, "GreenWindow");
    ECO_INFO << "job " << id << " held for green window until "
             << job.eligible_time;
  } else {
    EnterPending(job);
  }

  metrics_set_.pending_peak->SetMax(static_cast<double>(PendingDepth()));
  return id;
}

std::uint64_t ClusterSim::PendingDepth() const {
  std::uint64_t depth = waiting_deps_.size();
  for (const auto& shard : shards_) depth += shard->pending.size();
  return depth;
}

IndexedJob ClusterSim::ToIndexedJob(const JobRecord& job) const {
  IndexedJob out;
  out.id = job.id;
  out.user = job.request.user_id;
  out.tiebreak = submit_order_.at(job.id);
  out.nodes_needed = job.request.min_nodes;
  out.time_limit_s = job.request.time_limit_s;
  out.eligible_time = job.eligible_time;
  out.size_factor =
      priority_.SizeFactor(job.request.num_tasks, job.request.min_nodes);
  return out;
}

void ClusterSim::EnterPending(JobRecord& job) {
  // Doomed dependencies (afterok on a failed/cancelled/unknown job) fail the
  // job right away.
  for (const JobId dep : job.request.depends_on) {
    const auto it = jobs_.find(dep);
    if (it == jobs_.end() || it->second.state == JobState::kFailed ||
        it->second.state == JobState::kCancelled) {
      ECO_WARN << "job " << job.id << " failed: DependencyNeverSatisfied";
      FinalizeJob(job, JobState::kFailed, "DependencyNeverSatisfied");
      return;
    }
  }
  int unmet = 0;
  for (const JobId dep : job.request.depends_on) {
    if (jobs_.at(dep).state != JobState::kCompleted) {
      ++unmet;
      dependents_[dep].push_back(job.id);
    }
  }
  if (unmet > 0) {
    waiting_deps_[job.id] = unmet;
    return;
  }
  PartitionShard& shard = ShardOf(job);
  shard.pending.Insert(ToIndexedJob(job));
  shard.metrics.pending_peak->SetMax(
      static_cast<double>(shard.pending.size()));
}

void ClusterSim::NotifyDependents(JobId id, bool completed) {
  const auto it = dependents_.find(id);
  if (it == dependents_.end()) return;
  const std::vector<JobId> waiters = std::move(it->second);
  dependents_.erase(it);
  for (const JobId waiter : waiters) {
    const auto wit = waiting_deps_.find(waiter);
    if (wit == waiting_deps_.end()) continue;  // cancelled or already doomed
    JobRecord& job = jobs_.at(waiter);
    if (!completed) {
      waiting_deps_.erase(wit);
      ECO_WARN << "job " << waiter << " failed: DependencyNeverSatisfied";
      // Recursion dooms its own waiters.
      FinalizeJob(job, JobState::kFailed, "DependencyNeverSatisfied");
    } else if (--wit->second == 0) {
      waiting_deps_.erase(wit);
      if (TraceEnabled()) TraceLifecycle("eligible", job, "DependenciesMet");
      ShardOf(job).pending.Insert(ToIndexedJob(job));
    }
  }
}

void ClusterSim::RequestDispatch() {
  if (!config_.defer_dispatch) {
    Dispatch();
    return;
  }
  if (dispatch_scheduled_) {
    metrics_set_.dispatch_coalesced->Add(1);
    return;
  }
  dispatch_scheduled_ = true;
  // Scheduled at `now`: the queue's sequence ordering runs it after every
  // event already scheduled for this timestamp, so one pass sees them all.
  queue_.ScheduleAt(queue_.now(), [this](SimTime) {
    dispatch_scheduled_ = false;
    Dispatch();
  });
}

void ClusterSim::RemoveFromPending(JobId id) {
  ShardOf(jobs_.at(id)).pending.Erase(id);
}

IndexedPlan ClusterSim::PlanShard(PartitionShard& shard, int free_nodes) {
  // Runs on pool workers during parallel dispatch; the Counter handles are
  // thread-safe, and nothing here may touch the tracer (trace events come
  // from the serial ExecutePlan so the trace is pool-size invariant).
  telemetry::ScopedCounterTimer timer(shard.metrics.dispatch_ns);
  shard.metrics.dispatch_calls->Add(1);
  IndexedPlan plan = PlanScheduleIndexed(
      config_.policy, shard.pending, shard.timeline, free_nodes, queue_.now(),
      config_.backfill_max_job_test);
  shard.metrics.plan_candidates->Add(plan.candidates);
  shard.metrics.backfill_planned->Add(plan.backfilled);
  return plan;
}

void ClusterSim::Dispatch() {
  telemetry::ScopedCounterTimer timer(metrics_set_.dispatch_ns);
  metrics_set_.dispatch_calls->Add(1);
  // Only shards with pending work pay anything this pass.
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->pending.empty()) active.push_back(i);
  }
  if (active.empty()) return;

  // Disjoint partitions: planning touches only shard-local state (its own
  // pending index, timeline, fair-share tracker, and its own nodes' idle
  // flags), so all active shards are planned before any executes, on the
  // pool when two or more have a free node. A shard without one can start
  // nothing (its plan ends after one candidate) and plans inline: waking
  // the pool for it costs more than the plan. Execution stays serial in
  // partition-config order — starts only consume the executing shard's
  // nodes, so deferred plans are exactly what an interleaved serial walk
  // would have produced, and the schedule is pool-size invariant.
  if (!partitions_overlap_ && active.size() > 1) {
    std::vector<int> free(active.size());
    std::size_t startable = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      free[i] = FreeNodesInShard(*shards_[active[i]]);
      if (free[i] > 0) ++startable;
    }
    std::vector<IndexedPlan> plans(active.size());
    std::vector<std::size_t> pooled;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (startable > 1 && free[i] > 0) {
        pooled.push_back(i);
      } else {
        plans[i] = PlanShard(*shards_[active[i]], free[i]);
      }
    }
    if (!pooled.empty()) {
      ThreadPool& pool =
          config_.pool != nullptr ? *config_.pool : ThreadPool::Global();
      pool.ParallelForChunks(
          0, static_cast<std::int64_t>(pooled.size()), 1,
          [&](std::int64_t, std::int64_t begin, std::int64_t end) {
            for (std::int64_t p = begin; p < end; ++p) {
              const std::size_t i = pooled[static_cast<std::size_t>(p)];
              plans[i] = PlanShard(*shards_[active[i]], free[i]);
            }
          });
    }
    // A job FAILED during execution (power cap on an idle cluster, node
    // start failure) finalizes immediately, and dooming its dependents can
    // charge usage to another shard's fair-share tracker — state a later
    // shard's precomputed plan already read. Replan those shards serially;
    // shards before the first failure saw exactly what the interleaved walk
    // would have shown them, so the schedule stays bitwise identical to it.
    bool replan = false;
    for (std::size_t i = 0; i < active.size(); ++i) {
      PartitionShard& shard = *shards_[active[i]];
      if (replan) plans[i] = PlanShard(shard, FreeNodesInShard(shard));
      if (ExecutePlan(shard, plans[i]) > 0) replan = true;
    }
    return;
  }

  // Overlapping partitions (or a single active shard): a shard's starts can
  // consume nodes a later shard also owns, so plan+execute interleave in the
  // fixed partition-config order.
  for (const std::size_t i : active) {
    PartitionShard& shard = *shards_[i];
    ExecutePlan(shard, PlanShard(shard, FreeNodesInShard(shard)));
  }
}

int ClusterSim::ExecutePlan(PartitionShard& shard, const IndexedPlan& plan) {
  metrics_set_.plan_candidates->Add(plan.candidates);
  metrics_set_.backfill_planned->Add(plan.backfilled);
  if (TraceEnabled() && (plan.candidates > 0 || !plan.starts.empty())) {
    JsonObject args;
    args["partition"] = Json(shard.config->name);
    args["candidates"] = Json(plan.candidates);
    args["planned"] = Json(static_cast<long long>(plan.starts.size()));
    args["backfilled"] = Json(plan.backfilled);
    tracer_->Instant(queue_.now(), "plan", "sched", std::move(args));
  }
  if (plan.starts.empty()) return 0;

  // Power-cap policy ([12]-style budget): track the projected cluster draw
  // and skip jobs that would breach it; they stay queued for the next pass.
  double projected_watts =
      config_.power_cap_watts > 0.0 ? ClusterWatts() : 0.0;

  int failed = 0;
  for (const auto& start : plan.starts) {
    const JobId id = start.id;
    auto& job = jobs_.at(id);
    // Unplanned jobs keep their last computed priority (squeue may show a
    // stale value): only the jobs a pass plans are re-prioritised.
    job.priority = start.priority;
    if (config_.power_cap_watts > 0.0) {
      const double estimate = EstimateJobWatts(job.request);
      if (projected_watts + estimate > config_.power_cap_watts) {
        if (running_.empty()) {
          // Nothing will ever free up budget: the job alone exceeds the cap.
          ECO_WARN << "job " << id << " exceeds the power cap on an idle "
                   << "cluster (" << estimate << " W > budget); failing it";
          RemoveFromPending(id);
          FinalizeJob(job, JobState::kFailed, "PowerCap");
          ++failed;
          continue;
        }
        ECO_DEBUG << "job " << id << " deferred by power cap ("
                  << projected_watts + estimate << " W > "
                  << config_.power_cap_watts << " W)";
        if (TraceEnabled()) TraceLifecycle("defer", job, "PowerCap");
        continue;
      }
      projected_watts += estimate;
    }
    const auto node_idx = PickFreeNodes(shard, job.request.min_nodes);
    if (static_cast<int>(node_idx.size()) < job.request.min_nodes) continue;
    const Status started = StartJob(job, node_idx);
    if (started.ok()) {
      metrics_set_.jobs_started->Add(1);
      shard.metrics.jobs_started->Add(1);
      shard.metrics.wait_seconds->Observe(job.WaitSeconds());
      if (TraceEnabled()) {
        JsonObject args;
        args["job"] = Json(static_cast<long long>(job.id));
        args["partition"] = Json(job.request.partition);
        args["nodes"] = Json(static_cast<long long>(job.allocated_nodes));
        args["wait_s"] = Json(job.WaitSeconds());
        tracer_->Instant(queue_.now(), "start", "lifecycle", std::move(args));
      }
      RemoveFromPending(id);
    } else {
      ECO_WARN << "job " << id << " failed to start: " << started.message();
      RemoveFromPending(id);
      FinalizeJob(job, JobState::kFailed, "StartFailed");
      ++failed;
    }
  }
  return failed;
}

Status ClusterSim::StartJob(JobRecord& job,
                            const std::vector<std::size_t>& node_idx) {
  const int tasks_per_node = job.request.num_tasks / job.request.min_nodes;
  RunningJob run;
  run.node_indices = node_idx;
  run.nodes_remaining = node_idx.size();

  job.state = JobState::kRunning;
  job.start_time = queue_.now();
  job.node = nodes_[node_idx.front()]->name();
  job.allocated_nodes = static_cast<int>(node_idx.size());

  for (const std::size_t i : node_idx) {
    const Status status = nodes_[i]->StartJob(
        job, tasks_per_node,
        [this](JobId id, const RunStats& stats) { OnNodeDone(id, stats); });
    if (!status.ok()) {
      // Roll back nodes already started.
      for (const std::size_t j : node_idx) {
        if (j == i) break;
        nodes_[j]->CancelJob();
      }
      return status;
    }
  }

  // Charge spans open only after every node started (the idle gaps the
  // starts just flushed stay idle energy; the run's accruals bill the job).
  // Whole-node allocation today: share 1.0 per node.
  if (config_.energy_ledger != nullptr) {
    for (const std::size_t i : node_idx) {
      config_.energy_ledger->BeginSpan(i, job, 1.0);
    }
  }

  const JobId id = job.id;
  run.timeout_event = queue_.ScheduleAfter(
      job.request.time_limit_s, [this, id](SimTime) { OnTimeout(id); });
  running_[id] = std::move(run);
  // Every shard whose node set intersects the allocation sees the release in
  // its own timeline (overlapping partitions backfill around each other's
  // jobs). The intersection count is what that shard gets back at release.
  const SimTime release = job.start_time + job.request.time_limit_s;
  for (const auto& shard : shards_) {
    int held = 0;
    for (const std::size_t i : node_idx) {
      if (shard->member[i]) ++held;
    }
    if (held == 0) continue;
    shard->timeline.Add(id, release, held);
    shard->metrics.timeline_peak->SetMax(
        static_cast<double>(shard->timeline.size()));
  }
  metrics_set_.timeline_peak->SetMax(static_cast<double>(running_.size()));
  return Status::Ok();
}

void ClusterSim::RemoveFromTimelines(JobId id) {
  for (const auto& shard : shards_) shard->timeline.Remove(id);
}

void ClusterSim::OnNodeDone(JobId id, const RunStats& stats) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  RunningJob& run = it->second;

  run.aggregate.system_joules += stats.system_joules;
  run.aggregate.cpu_joules += stats.cpu_joules;
  run.aggregate.gflops += stats.gflops;
  run.aggregate.avg_cpu_temp += stats.avg_cpu_temp;
  run.aggregate.seconds = std::max(run.aggregate.seconds, stats.seconds);

  if (--run.nodes_remaining > 0) return;

  auto& job = jobs_.at(id);
  job.system_joules = run.aggregate.system_joules;
  job.cpu_joules = run.aggregate.cpu_joules;
  job.gflops = run.aggregate.gflops;
  job.avg_cpu_temp =
      run.aggregate.avg_cpu_temp / static_cast<double>(run.node_indices.size());
  queue_.Cancel(run.timeout_event);
  running_.erase(it);
  RemoveFromTimelines(id);
  FinalizeJob(job, JobState::kCompleted);
  RequestDispatch();
}

void ClusterSim::OnTimeout(JobId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  RunningJob& run = it->second;

  auto& job = jobs_.at(id);
  ECO_WARN << "job " << id << " hit its time limit; cancelling";
  RunStats aggregate{};
  for (const std::size_t i : run.node_indices) {
    if (nodes_[i]->running_job() == id) {
      const RunStats stats = nodes_[i]->CancelJob();
      aggregate.system_joules += stats.system_joules;
      aggregate.cpu_joules += stats.cpu_joules;
      aggregate.gflops += stats.gflops;
      aggregate.avg_cpu_temp += stats.avg_cpu_temp;
      aggregate.seconds = std::max(aggregate.seconds, stats.seconds);
    }
  }
  job.system_joules = aggregate.system_joules + run.aggregate.system_joules;
  job.cpu_joules = aggregate.cpu_joules + run.aggregate.cpu_joules;
  job.gflops = aggregate.gflops;
  job.avg_cpu_temp =
      aggregate.avg_cpu_temp / static_cast<double>(run.node_indices.size());
  running_.erase(it);
  RemoveFromTimelines(id);
  FinalizeJob(job, JobState::kCancelled, "TimeLimit");
  RequestDispatch();
}

void ClusterSim::FinalizeJob(JobRecord& job, JobState state,
                             const char* reason) {
  job.state = state;
  job.end_time = queue_.now();
  if (TraceEnabled()) {
    TraceLifecycle(state == JobState::kCompleted ? "end" : "doom", job,
                   reason);
    // The job's run becomes a span on its first node's lane, so the drain
    // reads as a per-node Gantt chart in Perfetto.
    if (job.allocated_nodes > 0) {
      telemetry::TraceEvent span;
      span.sim_time = job.start_time;
      span.phase = 'X';
      span.dur_s = job.RunSeconds();
      span.track = node_track_by_name_.at(job.node);
      span.name = "job " + std::to_string(job.id);
      span.category = "job";
      span.args["job"] = Json(static_cast<long long>(job.id));
      span.args["partition"] = Json(job.request.partition);
      span.args["nodes"] = Json(static_cast<long long>(job.allocated_nodes));
      span.args["state"] = Json(std::string(JobStateName(state)));
      tracer_->Record(std::move(span));
    }
  }
  // Usage decays within the job's partition only (per-shard tracker).
  ShardOf(job).fairshare.AddUsage(
      job.request.user_id, job.RunSeconds() * job.request.num_tasks,
      queue_.now());
  // All of the job's energy is accrued by now (completion ticks and cancel
  // paths both run Accrue before reaching here), so close the charge spans
  // and settle the ledger entry before the record lands in accounting.
  if (config_.energy_ledger != nullptr) {
    config_.energy_ledger->EndSpans(job.id);
    config_.energy_ledger->FinalizeJob(job);
    job.attributed_joules = config_.energy_ledger->JobJoules(job.id);
  }
  accounting_.Record(job);
  NotifyDependents(job.id, state == JobState::kCompleted);
}

Status ClusterSim::Cancel(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::Error("cancel: no such job");
  JobRecord& job = it->second;
  switch (job.state) {
    case JobState::kPending:
    case JobState::kHeld:
      RemoveFromPending(id);
      waiting_deps_.erase(id);
      FinalizeJob(job, JobState::kCancelled, "Cancelled");
      RequestDispatch();  // dependents of a cancelled job must fail promptly
      return Status::Ok();
    case JobState::kRunning: {
      auto run_it = running_.find(id);
      if (run_it != running_.end()) {
        for (const std::size_t i : run_it->second.node_indices) {
          if (nodes_[i]->running_job() == id) nodes_[i]->CancelJob();
        }
        queue_.Cancel(run_it->second.timeout_event);
        running_.erase(run_it);
        RemoveFromTimelines(id);
      }
      FinalizeJob(job, JobState::kCancelled, "Cancelled");
      RequestDispatch();
      return Status::Ok();
    }
    default:
      return Status::Error("cancel: job already finished");
  }
}

std::vector<JobRecord> ClusterSim::Queue() const {
  std::vector<JobRecord> out;
  for (const auto& [id, job] : jobs_) {
    (void)id;
    if (job.state == JobState::kPending || job.state == JobState::kHeld ||
        job.state == JobState::kRunning) {
      out.push_back(job);
    }
  }
  return out;
}

std::optional<JobRecord> ClusterSim::GetJob(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

void ClusterSim::RunUntilIdle() { queue_.RunAll(); }

void ClusterSim::RunUntil(SimTime horizon) { queue_.RunUntil(horizon); }

Result<JobRecord> ClusterSim::RunJobToCompletion(JobRequest request) {
  auto submitted = Submit(std::move(request));
  if (!submitted.ok()) return Result<JobRecord>::Error(submitted.message());
  const JobId id = submitted.value();
  while (true) {
    const auto job = GetJob(id);
    if (!job.has_value()) return Result<JobRecord>::Error("job vanished");
    if (job->state == JobState::kCompleted) return *job;
    if (job->state == JobState::kFailed || job->state == JobState::kCancelled) {
      return Result<JobRecord>::Error(std::string("job ended ") +
                                      JobStateName(job->state));
    }
    if (!queue_.Step()) {
      return Result<JobRecord>::Error("simulation stalled before completion");
    }
  }
}

}  // namespace eco::slurm
