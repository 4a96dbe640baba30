#include "sched_scenarios.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <utility>

#include "chronus/env.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/energy_ledger.hpp"

namespace eco::slurm::scenarios {

std::vector<Action> MakeScenario(std::uint64_t seed, int count,
                                 bool with_deps, bool green_comments) {
  Rng rng(seed);
  std::vector<Action> actions;
  SimTime clock = 0.0;
  std::vector<SimTime> arrivals;
  for (int i = 0; i < count; ++i) {
    clock += rng.Uniform(1.0, 90.0);
    Action action;
    action.t = clock;
    JobRequest& request = action.request;
    request.name = "job-" + std::to_string(i);
    request.user_id = 1000 + static_cast<std::uint32_t>(rng.NextBounded(4));
    request.min_nodes = rng.UniformInt(1, 3);
    request.num_tasks = 4 * request.min_nodes;
    const double duration = rng.Uniform(20.0, 300.0);
    request.workload = WorkloadSpec::Fixed(duration, rng.Uniform(0.5, 0.95));
    // ~1 in 8 jobs hits its time limit (exercises OnTimeout).
    request.time_limit_s = rng.Chance(0.125) ? duration * 0.5
                                             : duration * rng.Uniform(1.2, 4.0);
    if (with_deps && i > 0 && rng.Chance(0.25)) {
      // Job ids are assigned 1..count in submission order.
      request.depends_on.push_back(
          static_cast<JobId>(1 + rng.NextBounded(static_cast<std::uint64_t>(i))));
    }
    if (green_comments && rng.Chance(0.4)) request.comment = "green";
    arrivals.push_back(clock);
    actions.push_back(std::move(action));
  }
  // Cancels: aimed at random jobs after their submission; depending on
  // timing they hit pending, running, or finished jobs.
  const int cancels = count / 8;
  for (int i = 0; i < cancels; ++i) {
    const auto victim = rng.NextBounded(static_cast<std::uint64_t>(count));
    Action action;
    action.is_cancel = true;
    action.cancel_id = static_cast<JobId>(victim + 1);
    action.t = arrivals[victim] + rng.Uniform(0.0, 400.0);
    actions.push_back(std::move(action));
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) { return a.t < b.t; });
  return actions;
}

void Drive(ClusterSim& cluster, const std::vector<Action>& actions,
           std::vector<JobId>* ids) {
  for (const Action& action : actions) {
    cluster.RunUntil(action.t);
    if (action.is_cancel) {
      if (action.cancel_id <= ids->size()) {
        (void)cluster.Cancel((*ids)[action.cancel_id - 1]);
      }
    } else {
      // A rejected submit records id 0, which JobLine reports as missing.
      auto id = cluster.Submit(action.request);
      ids->push_back(id.ok() ? *id : 0);
    }
  }
  cluster.RunUntilIdle();
}

ClusterConfig BaseConfig(SchedulerPolicy policy, bool multifactor) {
  ClusterConfig config;
  config.nodes = 6;
  config.policy = policy;
  config.use_multifactor = multifactor;
  return config;
}

namespace {

ClusterConfig TwoPartitions(int nodes, std::pair<int, int> a_range,
                            std::pair<int, int> b_range) {
  ClusterConfig config;
  config.nodes = nodes;
  PartitionConfig a;
  a.name = "a";
  a.is_default = true;
  a.node_ranges = {a_range};
  PartitionConfig b;
  b.name = "b";
  b.is_default = false;
  b.node_ranges = {b_range};
  config.partitions = {a, b};
  return config;
}

}  // namespace

ClusterConfig DisjointConfig() { return TwoPartitions(10, {0, 4}, {5, 9}); }

ClusterConfig OverlapConfig() { return TwoPartitions(8, {0, 5}, {3, 7}); }

std::vector<GeneratedJob> MultiPartitionJobs(int count, std::uint64_t seed) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.25;
  mix.wide_nodes = 2;
  mix.mean_interarrival_s = 25.0;
  mix.users = 4;
  mix.seed = seed;
  mix.partitions = {"", "a", "b"};
  return GenerateWorkload(mix, count, /*max_cores=*/8,
                          /*iterations_for_hpcg=*/1);
}

ClusterConfig LedgerHarnessConfig(ThreadPool* pool) {
  ClusterConfig config;
  config.nodes = 16;
  config.defer_dispatch = true;
  config.pool = pool;
  config.partitions.clear();
  for (int p = 0; p < 4; ++p) {
    PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    partition.is_default = p == 0;
    partition.node_ranges = {{p * 4, p * 4 + 3}};
    config.partitions.push_back(partition);
  }
  return config;
}

std::vector<JobRequest> LedgerHarnessWorkload(const ClusterConfig& config,
                                              int jobs) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.users = 8;
  mix.seed = 97;
  for (const auto& partition : config.partitions) {
    mix.partitions.push_back(partition.name);
  }
  auto generated = GenerateWorkload(mix, jobs, 32, 1);
  std::vector<JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));
  return requests;
}

std::string JobLine(std::size_t index, const JobRecord& job) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%zu %s %a %a %s %d %s %d %llu", index,
                JobStateName(job.state), job.start_time, job.end_time,
                job.node.empty() ? "-" : job.node.c_str(), job.allocated_nodes,
                job.request.partition.c_str(), job.request.num_tasks,
                static_cast<unsigned long long>(job.request.cpu_freq_max));
  return buf;
}

namespace {

// The engine a golden is captured from (legacy) or checked against.
ClusterConfig EngineConfig(ClusterConfig config) {
#ifdef ECO_GOLDEN_LEGACY
  config.use_legacy_scheduler = true;
#endif
  return config;
}

// A direct registry read, not ReadSchedMetric: this file also builds
// against the pre-removal tree, which predates that helper.
std::uint64_t PlanCandidates(const ClusterSim& cluster) {
  const telemetry::Counter* counter =
      cluster.metrics().FindCounter("eco_sched_plan_candidates_total");
  return counter != nullptr ? counter->Value() : 0;
}

GoldenRun Collect(const ClusterSim& cluster, const std::vector<JobId>& ids) {
  GoldenRun run;
  run.plan_candidates = PlanCandidates(cluster);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto job = cluster.GetJob(ids[i]);
    run.lines.push_back(job ? JobLine(i, *job)
                            : std::to_string(i) + " missing");
  }
  return run;
}

GoldenRun RandomRun(ClusterConfig config, std::uint64_t seed, int count,
                    bool with_deps, bool green) {
  ClusterSim cluster(EngineConfig(config));
  std::vector<JobId> ids;
  Drive(cluster, MakeScenario(seed, count, with_deps, green), &ids);
  return Collect(cluster, ids);
}

// Budget ~2.5 one-node jobs above idle draw: narrow jobs get deferred by
// the cap under load, and 3-node jobs exceed it outright on an idle
// cluster.
GoldenRun PowerCapRun(std::uint64_t seed) {
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  ClusterSim probe(config);
  JobRequest one_node;
  one_node.num_tasks = 4;
  one_node.workload = WorkloadSpec::Fixed(100.0, 0.9);
  config.power_cap_watts =
      probe.ClusterWatts() + 2.5 * probe.EstimateJobWatts(one_node);
  return RandomRun(config, seed, 50, /*with_deps=*/true, /*green=*/false);
}

// An idle cluster fails a job that alone exceeds the cap; its dependent is
// doomed in the same pass.
GoldenRun PowerCapDoomRun() {
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  ClusterSim probe(config);
  JobRequest big;
  big.name = "over-cap";
  big.min_nodes = 3;
  big.num_tasks = 12;
  big.workload = WorkloadSpec::Fixed(100.0, 0.9);
  big.time_limit_s = 500.0;
  config.power_cap_watts =
      probe.ClusterWatts() + 0.5 * probe.EstimateJobWatts(big);
  ClusterSim cluster(EngineConfig(config));
  std::vector<JobId> ids;
  const auto big_id = cluster.Submit(big);
  ids.push_back(big_id.ok() ? *big_id : 0);
  JobRequest dependent;
  dependent.name = "doomed-dependent";
  dependent.num_tasks = 4;
  dependent.workload = WorkloadSpec::Fixed(50.0, 0.9);
  dependent.time_limit_s = 500.0;
  dependent.depends_on.push_back(ids.front());
  const auto dep_id = cluster.Submit(dependent);
  ids.push_back(dep_id.ok() ? *dep_id : 0);
  cluster.RunUntilIdle();
  return Collect(cluster, ids);
}

// The full Chronus pipeline seeds a model, then half the scenario's jobs opt
// into the eco plugin's rewrite.
GoldenRun EcoPluginRun() {
  namespace fs = std::filesystem;
  const fs::path workdir =
      fs::temp_directory_path() /
      ("eco_sched_golden_" + std::to_string(::getpid()));
  fs::remove_all(workdir);
  fs::create_directories(workdir);
  chronus::EnvOptions options;
  options.workdir = workdir.string();
  options.runner.target_seconds = 60.0;
  options.cluster = EngineConfig(BaseConfig(SchedulerPolicy::kBackfill, true));
  GoldenRun run;
  {
    auto env = chronus::MakeSimEnv(options);
    const bool ready =
        chronus::RunFullPipeline(env,
                                 {{32, 1, kHz(2'200'000)},
                                  {32, 1, kHz(2'500'000)},
                                  {16, 1, kHz(2'200'000)}},
                                 "brute-force")
            .ok();
    plugin::SetChronusGateway(env.gateway);
    if (ready && env.cluster->plugins().Load(plugin::EcoPluginOps()).ok()) {
      auto actions =
          MakeScenario(1111, 25, /*with_deps=*/false, /*green=*/false);
      int i = 0;
      for (Action& action : actions) {
        if (!action.is_cancel && (i++ % 2) == 0) {
          action.request.comment = "chronus";
        }
      }
      std::vector<JobId> ids;
      Drive(*env.cluster, actions, &ids);
      run = Collect(*env.cluster, ids);
    } else {
      run.lines.push_back("pipeline failed");
    }
    plugin::SetChronusGateway(nullptr);
  }
  fs::remove_all(workdir);
  return run;
}

GoldenRun PartitionRun(const ClusterConfig& config, std::uint64_t seed) {
  ClusterSim cluster(EngineConfig(config));
  std::vector<JobId> ids;
  for (const auto& job : MultiPartitionJobs(140, seed)) {
    cluster.RunUntil(job.arrival);
    const auto id = cluster.Submit(job.request);
    ids.push_back(id.ok() ? *id : 0);
  }
  cluster.RunUntilIdle();
  return Collect(cluster, ids);
}

// 1000 jobs over four disjoint partitions with the energy ledger attached;
// the ledger's JSON is the last line.
GoldenRun LedgerRun() {
  ThreadPool pool(4);
  EnergyLedger ledger;
  ClusterConfig config = LedgerHarnessConfig(&pool);
  config.energy_ledger = &ledger;
  ClusterSim cluster(EngineConfig(config));
  std::vector<JobId> ids;
  for (const auto& result :
       cluster.SubmitBatch(LedgerHarnessWorkload(config, 1000))) {
    ids.push_back(result.ok() ? *result : 0);
  }
  cluster.RunUntilIdle();
  cluster.FlushIdleEnergy();
  GoldenRun run = Collect(cluster, ids);
  run.lines.push_back("ledger " + ledger.ToJson().Dump());
  return run;
}

using Scenario = std::pair<std::string, std::function<GoldenRun()>>;

const std::vector<Scenario>& Registry() {
  using P = SchedulerPolicy;
  static const std::vector<Scenario> registry = [] {
    std::vector<Scenario> out;
    const auto random = [&out](const std::string& prefix, ClusterConfig config,
                               std::uint64_t seed, int count, bool deps,
                               bool green) {
      out.emplace_back(prefix + "_" + std::to_string(seed), [=] {
        return RandomRun(config, seed, count, deps, green);
      });
    };
    for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
      random("backfill_mf", BaseConfig(P::kBackfill, true), seed, 60, true,
             false);
    }
    for (const std::uint64_t seed : {404ull, 505ull}) {
      random("fifo_mf", BaseConfig(P::kFifo, true), seed, 60, true, false);
    }
    for (const std::uint64_t seed : {606ull, 707ull}) {
      random("backfill_prio0", BaseConfig(P::kBackfill, false), seed, 60, true,
             false);
    }
    // Tiny max_age forces jobs to saturate mid-run.
    ClusterConfig age = BaseConfig(P::kBackfill, true);
    age.priority_weights.max_age_seconds = 120.0;
    random("age_saturation", age, 808, 60, false, false);
    ClusterConfig green = BaseConfig(P::kBackfill, true);
    green.enable_green_hold = true;
    random("green_hold", green, 909, 50, true, true);
    for (const std::uint64_t seed : {1212ull, 1313ull}) {
      out.emplace_back("power_cap_" + std::to_string(seed),
                       [seed] { return PowerCapRun(seed); });
    }
    out.emplace_back("power_cap_doom", PowerCapDoomRun);
    out.emplace_back("eco_plugin_1111", EcoPluginRun);
    for (const std::uint64_t seed : {31'337ull, 90'210ull}) {
      out.emplace_back("partition_disjoint_" + std::to_string(seed),
                       [seed] { return PartitionRun(DisjointConfig(), seed); });
    }
    for (const std::uint64_t seed : {4'242ull, 1'701ull}) {
      out.emplace_back("partition_overlap_" + std::to_string(seed),
                       [seed] { return PartitionRun(OverlapConfig(), seed); });
    }
    out.emplace_back("ledger_books", LedgerRun);
    return out;
  }();
  return registry;
}

}  // namespace

std::vector<std::string> GoldenScenarioNames() {
  std::vector<std::string> names;
  for (const auto& [name, run] : Registry()) names.push_back(name);
  return names;
}

GoldenRun RunGoldenScenario(const std::string& name) {
  for (const auto& [entry, run] : Registry()) {
    if (entry == name) return run();
  }
  GoldenRun unknown;
  unknown.lines.push_back("unknown scenario " + name);
  return unknown;
}

bool ReadGolden(const std::string& path, GoldenRun* out) {
  std::ifstream in(path);
  std::string header;
  if (!in || !std::getline(in, header)) return false;
  const std::string key = "plan_candidates ";
  if (header.rfind(key, 0) != 0) return false;
  out->plan_candidates = std::stoull(header.substr(key.size()));
  out->lines.clear();
  for (std::string line; std::getline(in, line);) out->lines.push_back(line);
  return true;
}

bool WriteGolden(const std::string& path, const GoldenRun& run) {
  std::ofstream out(path);
  out << "plan_candidates " << run.plan_candidates << "\n";
  for (const std::string& line : run.lines) out << line << "\n";
  return static_cast<bool>(out);
}

}  // namespace eco::slurm::scenarios
