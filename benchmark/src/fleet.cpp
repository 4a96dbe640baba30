// fleet_replay: a deterministic sim-time replay of a generated fleet on a
// partitioned cluster with an EnergyLedger attached, plugin on. Arrivals are
// submitted by a RunUntil(arrival) + Submit loop — event-for-event what
// PumpWorkload does at coalesce 0 — so the benchmark can time each submit
// from outside. Rep 0 (and every traced rep) also replays a plugin-off twin
// for the energy comparison, with an EnergyGatherHost on the same taps to
// check that the ledger conserves energy.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "deploy.hpp"
#include "bench_common.hpp"
#include "hpcg/perf_model.hpp"
#include "hw/rapl.hpp"
#include "plugin/acct_gather_energy.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/cluster.hpp"
#include "slurm/energy_gather.hpp"
#include "slurm/energy_ledger.hpp"
#include "slurm/workload_gen.hpp"
#include "workloads.hpp"

namespace ecobench {
namespace {

using namespace eco;
using namespace eco::slurm;

constexpr int kNodes = 256;
constexpr int kPartitions = 4;
constexpr int kCores = 32;
constexpr double kHpcgSeconds = 600.0;  // at the reference configuration
constexpr double kPollSeconds = 5.0;    // twin's acct_gather poll period
constexpr std::size_t kSegmentJobs = 10;  // arrivals per timed segment

struct FleetShape {
  int jobs;
  double mean_interarrival_s;
};

FleetShape ShapeFor(bool smoke) {
  return smoke ? FleetShape{300, 3.6} : FleetShape{10000, 3.6};
}

std::vector<GeneratedJob> MakeFleet(std::uint64_t seed, const FleetShape& shape,
                                    Digest& digest) {
  WorkloadMix mix;
  mix.hpcg_share = 0.4;
  mix.wide_share = 0.2;
  mix.wide_nodes = 4;
  mix.users = 64;
  mix.mean_interarrival_s = shape.mean_interarrival_s;
  mix.hpcg_target_seconds = kHpcgSeconds;
  mix.seed = seed;
  for (int p = 0; p < kPartitions; ++p) {
    mix.partitions.push_back("p" + std::to_string(p));
  }
  const int iterations = hpcg::HpcgPerfModel().IterationsForDuration(
      hpcg::HpcgProblem::Official(), kHpcgSeconds);
  auto jobs = GenerateWorkload(mix, shape.jobs, kCores, iterations);
  for (const GeneratedJob& job : jobs) {
    digest.AddValue(job.arrival);
    digest.Add(job.request.partition);
    digest.AddValue(job.request.num_tasks);
    digest.AddValue(job.request.min_nodes);
    digest.AddValue(job.request.workload.fixed_duration_s);
  }
  return jobs;
}

ClusterConfig FleetConfig(ThreadPool* pool,
                          telemetry::MetricsRegistry* registry,
                          EnergyLedger* ledger) {
  ClusterConfig config;
  config.nodes = kNodes;
  config.node.tick_seconds = 1.0;
  config.defer_dispatch = true;
  config.pool = pool;
  config.metrics = registry;
  config.energy_ledger = ledger;
  config.partitions.clear();
  const int per = kNodes / kPartitions;
  for (int p = 0; p < kPartitions; ++p) {
    PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    partition.is_default = p == 0;
    partition.node_ranges = {{p * per, (p + 1) * per - 1}};
    config.partitions.push_back(partition);
  }
  return config;
}

// The plugin-off twin: same fleet, no plugin, the cluster advanced in
// kPollSeconds steps so an acct_gather_energy/rapl host on the same taps
// can poll between them. Returns false when a check fails.
struct TwinResult {
  double ledger_j = 0.0;
  double host_j = 0.0;
  bool completed = true;
};

TwinResult RunTwin(const std::vector<GeneratedJob>& jobs, ThreadPool* pool) {
  TwinResult out;
  telemetry::MetricsRegistry registry;
  EnergyLedger ledger;
  ClusterSim cluster(FleetConfig(pool, &registry, &ledger));
  // 2^-10 J units: the 32-bit counter wraps every ~4 MJ, far more than the
  // whole cluster draws in one poll period.
  hw::RaplCounter counter(1.0 / 1024.0);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.node(i).AddEnergyTap(
        [&counter](double system_watts, double /*cpu*/, double dt) {
          counter.Accumulate(system_watts, dt);
        });
  }
  plugin::SetRaplEnergySource(&counter, &cluster.queue());
  EnergyGatherHost host;
  if (!host.Load(plugin::RaplEnergyOps()).ok() || !host.PollDelta().ok()) {
    out.completed = false;
    return out;
  }
  const auto poll = [&] {
    cluster.FlushIdleEnergy();
    const auto delta = host.PollDelta();
    if (delta.ok()) {
      out.host_j += *delta;
    } else {
      out.completed = false;
    }
  };
  const auto advance = [&](SimTime horizon) {
    while (cluster.Now() + kPollSeconds < horizon) {
      cluster.RunUntil(cluster.Now() + kPollSeconds);
      poll();
    }
    cluster.RunUntil(horizon);
  };
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (const GeneratedJob& job : jobs) {
    advance(job.arrival);
    const auto id = cluster.Submit(job.request);
    if (!id.ok()) {
      out.completed = false;
      continue;
    }
    ids.push_back(*id);
  }
  while (!cluster.queue().empty()) {
    cluster.RunUntil(cluster.Now() + kPollSeconds);
    poll();
  }
  poll();
  host.Unload();
  plugin::SetRaplEnergySource(nullptr, nullptr);
  for (const JobId id : ids) {
    const auto job = cluster.GetJob(id);
    out.completed = out.completed && job && job->state == JobState::kCompleted;
  }
  out.ledger_j = ledger.TotalJoules();
  return out;
}

// Suspends span recording on this thread for the twin, which is outside
// the measured window.
class Untraced {
 public:
  Untraced() : saved_(CurrentLog()) { Tracer::Detach(); }
  ~Untraced() { Tracer::Reattach(saved_); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  SpanLog* saved_;
};

}  // namespace

RepResult RunFleet(const Options& options, Tracer* tracer,
                   std::int64_t start_ns) {
  RepResult result;
  const FleetShape shape = ShapeFor(options.smoke);
  result.attempted = static_cast<std::uint64_t>(shape.jobs);

  ThreadPool pool(2);
  std::vector<std::int64_t> setup_ends;  // product calls the set-up made
  DeploymentOptions deploy;
  deploy.workdir = options.workdir + "/chronus";
  deploy.pool = &pool;
  deploy.traced = tracer != nullptr;
  deploy.call_ends = &setup_ends;
  chronus::ChronusEnv env = MakeDeployment(deploy);
  const auto model = BuildModel(env, bench::PaperSweepConfigurations(), 0);
  if (!model.ok()) {
    result.Check(false, "model build: " + model.message());
    result.failed = result.attempted;
    return result;
  }
  Digest digest;
  const std::vector<GeneratedJob> jobs = MakeFleet(options.seed, shape, digest);
  result.digest = digest.Hex();

  telemetry::MetricsRegistry registry;
  EnergyLedger ledger;
  ClusterSim cluster(FleetConfig(&pool, &registry, &ledger));
  const Status attached = AttachPlugin(env, cluster, tracer != nullptr);
  result.Check(attached.ok(), "plugin load: " + attached.message());
  const SchedClock sched_clock(registry);
  plugin::ResetEcoPluginStats();
  const std::int64_t setup_done = NowNs();
  result.setup_s = static_cast<double>(setup_done - start_ns) / 1e9;
  AppendSegments(start_ns, setup_ends, setup_done, result.setup_segment_s);

  Window window(tracer);
  const std::uint64_t spans0 = ClosedSpans();
  // The latency reported is the sbatch-return time of the jobs that opt in:
  // the plugin's decision path under fleet load. (The not-opted-in path is
  // what submit_plain measures.) A refused submit counts as one second.
  std::vector<double> latency_ms;
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  const std::int64_t replay_start = NowNs();
  std::vector<std::int64_t> cuts;  // segment ends, the last one excepted
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0 && i % kSegmentJobs == 0) cuts.push_back(NowNs());
    {
      SimScope span("sim.run_until", &sched_clock, i + 1);
      cluster.RunUntil(jobs[i].arrival);
    }
    const std::int64_t t = NowNs();
    Result<JobId> id = Result<JobId>::Error("not submitted");
    {
      Scope span("sched.submit", Layer::kSched, i + 1);
      id = cluster.Submit(jobs[i].request);
    }
    const double elapsed_ms = static_cast<double>(NowNs() - t) / 1e6;
    if (jobs[i].request.comment == "chronus") {
      latency_ms.push_back(id.ok() ? elapsed_ms : 1e3);
    }
    ids.push_back(id.ok() ? *id : 0);
  }
  cuts.push_back(NowNs());
  {
    SimScope span("sim.run_idle", &sched_clock);
    cluster.RunUntilIdle();
  }
  AppendSegments(replay_start, cuts, NowNs(), result.segment_s);
  window.Close(result);
  result.compute_spans = ClosedSpans() - spans0;
  cluster.FlushIdleEnergy();
  DetachPlugin(cluster);

  std::uint64_t failed = 0;
  double wait_sum = 0.0;
  for (const JobId id : ids) {
    const auto job = id != 0 ? cluster.GetJob(id) : std::nullopt;
    if (!job || job->state != JobState::kCompleted) {
      ++failed;
      continue;
    }
    wait_sum += job->WaitSeconds();
  }
  result.failed = failed;
  result.Check(failed == 0, std::to_string(failed) + " jobs not Completed");
  const double completed = static_cast<double>(jobs.size() - failed);
  const double mean_wait_s = completed > 0.0 ? wait_sum / completed : 0.0;
  const auto stats = plugin::GetEcoPluginStats();
  result.Check(stats.errors == 0, "plugin errors");
  result.Check(stats.modified > 0, "plugin rewrote no job");

  auto& m = result.metrics;
  result.compute_s = result.wall_s;
  m["ops_per_s"] = completed / result.wall_s;
  result.work = completed;
  m["latency_p50_ms"] = Percentile(latency_ms, 0.50);
  m["latency_p99_ms"] = Percentile(latency_ms, 0.99);
  m["mean_wait_s"] = mean_wait_s;
  m["sim.ledger_samples"] = static_cast<double>(ledger.samples());
  result.exact["ledger_joules"] = ledger.TotalJoules();
  result.exact["mean_wait_s"] = mean_wait_s;
  AddCounterMetrics({&registry}, jobs.size(), result);

  if (options.rep == 0 || tracer != nullptr) {
    Untraced untraced;
    const TwinResult twin = RunTwin(jobs, &pool);
    result.Check(twin.completed, "plugin-off twin: a job did not complete");
    result.Check(std::abs(twin.ledger_j - twin.host_j) <=
                     1e-6 * std::max(twin.host_j, 1.0),
                 "ledger not conserved against acct_gather_energy: " +
                     std::to_string(twin.ledger_j) + " J vs " +
                     std::to_string(twin.host_j) + " J");
    const double saved_pct =
        twin.ledger_j > 0.0
            ? 100.0 * (1.0 - ledger.TotalJoules() / twin.ledger_j)
            : 0.0;
    // The paper's claim at fleet scale: the plugin saves energy.
    result.Check(saved_pct > 0.0, "plugin saved no fleet energy");
    m["energy_saved_pct"] = saved_pct;
    result.exact["energy_saved_pct"] = saved_pct;
  }
  return result;
}

}  // namespace ecobench
