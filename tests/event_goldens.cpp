#include "event_goldens.hpp"

#include <cstdio>
#include <functional>
#include <utility>

#include "chronus/integrations.hpp"
#include "common/telemetry/timeseries.hpp"
#include "common/thread_pool.hpp"
#include "sched_scenarios.hpp"
#include "slurm/cluster.hpp"
#include "slurm/energy_ledger.hpp"
#include "slurm/ingress.hpp"
#include "slurm/workload_gen.hpp"

namespace eco::slurm::scenarios {
namespace {

// Every job the cluster knows, in id order, one JobLine each.
std::string ScheduleLines(const ClusterSim& cluster) {
  std::string out;
  std::size_t index = 0;
  for (JobId id = 1;; ++id) {
    const auto job = cluster.GetJob(id);
    if (!job) break;
    out += JobLine(index++, *job) + "\n";
  }
  return out;
}

// The Telemetry.TimeseriesBytesInvariantAcrossPoolSizes workload: 300
// generated jobs over four disjoint partitions, sampled every 30 sim-s.
std::string TimeseriesDump() {
  ThreadPool pool(1);
  telemetry::TimeSeriesStore store;
  ClusterConfig config;
  config.nodes = 16;
  config.defer_dispatch = true;
  config.pool = &pool;
  config.timeseries = &store;
  config.timeseries_resolution_s = 30.0;
  config.partitions.clear();
  for (int p = 0; p < 4; ++p) {
    PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    partition.is_default = p == 0;
    partition.node_ranges = {{p * 4, p * 4 + 3}};
    config.partitions.push_back(partition);
  }
  ClusterSim cluster(config);
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.users = 8;
  mix.seed = 97;
  for (const auto& partition : config.partitions) {
    mix.partitions.push_back(partition.name);
  }
  std::vector<JobRequest> requests;
  for (auto& job : GenerateWorkload(mix, 300, 32, 1)) {
    requests.push_back(std::move(job.request));
  }
  cluster.SubmitBatch(std::move(requests));
  cluster.RunUntilIdle();
  return store.DumpJson().Dump() + "\n";
}

JobRequest WeaveRequest(int i) {
  JobRequest request;
  request.name = "weave-" + std::to_string(i);
  request.user_id = 1000 + static_cast<std::uint32_t>(i % 4);
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(60.0, 0.8);
  return request;
}

// The PumpWeave.NetworkSubmitsAndGeneratedJobsCompose composition: 20
// generated jobs plus 50 requests queued in an ingress that is closed before
// the pump is installed, drained on a 30 s window. With `live`, the ingress
// instead stays open and receives one request every 7 sim-s until t=350,
// when it closes, so the periodic drain (not just the install pass) carries
// the requests.
std::string PumpWeaveSchedule(bool live) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 4;
  cluster_config.defer_dispatch = true;
  ClusterSim cluster(cluster_config);
  IngressConfig ingress_config;
  ingress_config.metrics = &cluster.metrics();
  SubmitIngress ingress(ingress_config);

  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.users = 4;
  mix.seed = 99;
  auto generated = GenerateWorkload(mix, 20, 28, 1);
  if (live) {
    for (int i = 0; i < 50; ++i) {
      cluster.queue().ScheduleAt(7.0 * i, [&ingress, i](SimTime) {
        (void)ingress.Submit(WeaveRequest(i));
      });
    }
    cluster.queue().ScheduleAt(350.0, [&ingress](SimTime) { ingress.Close(); });
  } else {
    for (int i = 0; i < 50; ++i) (void)ingress.Submit(WeaveRequest(i));
    ingress.Close();
  }
  PumpOptions options;
  options.ingress = &ingress;
  options.ingress_window_s = 30.0;
  const auto stats = PumpWorkload(cluster, std::move(generated), options);
  cluster.RunUntilIdle();
  return "drained " + std::to_string(stats->ingress_drained) + " batches " +
         std::to_string(stats->ingress_batches) + " submitted " +
         std::to_string(stats->submitted) + "\n" + ScheduleLines(cluster);
}

// Inline dispatch with the drain window equal to the node tick (1 s): a
// node that a drain starts has its first tick at the drain's next firing,
// and every job ends on a tick that is also a drain instant. Requests take
// a whole node, arrive between drains, and have staggered runtimes, so at
// such an instant one node frees while another idles. A periodic task
// re-arms after its callback, under a fresh seq, so the tick (armed inside
// the drain's callback) fires first and the drained request lands on the
// node it freed; a drain that fired first would take the idle node instead.
std::string TickAlignedWeave() {
  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  ClusterSim cluster(cluster_config);
  IngressConfig ingress_config;
  ingress_config.metrics = &cluster.metrics();
  SubmitIngress ingress(ingress_config);

  const int cores = cluster_config.node.machine.cpu.cores;
  for (int i = 0; i < 40; ++i) {
    cluster.queue().ScheduleAt(0.5 + 4.0 * i + (i % 3), [&ingress, i, cores](
                                                            SimTime) {
      JobRequest request = WeaveRequest(i);
      request.num_tasks = cores;
      request.workload = WorkloadSpec::Fixed(5.0 + (i * 7) % 11, 0.8);
      (void)ingress.Submit(request);
    });
  }
  cluster.queue().ScheduleAt(170.0, [&ingress](SimTime) { ingress.Close(); });
  PumpOptions options;
  options.ingress = &ingress;
  options.ingress_window_s = cluster_config.node.tick_seconds;
  const auto stats = PumpWorkload(cluster, {}, options);
  cluster.RunUntilIdle();
  return "drained " + std::to_string(stats->ingress_drained) + " batches " +
         std::to_string(stats->ingress_batches) + "\n" +
         ScheduleLines(cluster);
}

// Two back-to-back SimulatedHpcgRunner::Run benchmarks on one node, BMC
// sampled every 3 s: each run's PowerTrace::ToCsv().
std::string IpmiTraces() {
  ClusterConfig config;
  config.nodes = 1;
  ClusterSim cluster(config);
  chronus::SimulatedRunnerOptions options;
  options.target_seconds = 240.0;
  chronus::SimulatedHpcgRunner runner(&cluster, options);
  std::string out;
  for (const chronus::Configuration& run :
       {chronus::Configuration{32, 1, kHz(2'200'000)},
        chronus::Configuration{16, 2, kHz(1'500'000)}}) {
    const auto result = runner.Run(run);
    out += "run " + run.ToString() + (result.ok() ? "" : " failed") + "\n";
    out += runner.last_trace().ToCsv();
  }
  return out;
}

// Every job's energy books in id order, as exact hex doubles: the node's
// run integrals, the ledger's share and the GFLOPS rating.
std::string EnergyLines(const ClusterSim& cluster) {
  std::string out;
  for (JobId id = 1;; ++id) {
    const auto job = cluster.GetJob(id);
    if (!job) break;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "energy %llu %a %a %a %a %a\n",
                  static_cast<unsigned long long>(id), job->system_joules,
                  job->cpu_joules, job->attributed_joules, job->gflops,
                  job->avg_cpu_temp);
    out += buf;
  }
  return out;
}

// Two unpinned HPCG benchmarks (no --cpu-freq) with hyper-threading on a
// node whose default governor is ondemand. A wide CG phase swing moves the
// utilization across both governor thresholds, so the frequency steps down
// and jumps back up many times within each run; every step changes the
// GFLOPS, mean utilization and phase amplitude the node integrates. An
// observer half a tick off the node's phase logs each frequency change.
std::string OndemandHtRuns() {
  ClusterConfig config;
  config.nodes = 1;
  config.node.default_governor = hw::Governor::kOndemand;
  config.node.perf.phase_amp_base = 0.55;
  config.node.perf.phase_period_s = 20.0;
  ClusterSim cluster(config);
  chronus::SimulatedRunnerOptions options;
  options.target_seconds = 90.0;
  chronus::SimulatedHpcgRunner runner(&cluster, options);
  std::string out;
  for (const chronus::Configuration& run :
       {chronus::Configuration{1, 2, 0}, chronus::Configuration{2, 2, 0}}) {
    std::vector<std::pair<SimTime, KiloHertz>> steps;
    const std::uint64_t watch = cluster.queue().ScheduleEvery(
        cluster.Now() + 0.5, 1.0,
        [&cluster, &steps](SimTime t) {
          const KiloHertz f = cluster.node(0).current_frequency();
          if (steps.empty() || steps.back().second != f) {
            steps.emplace_back(t, f);
          }
        },
        EventQueue::TaskKind::kObserver);
    const auto result = runner.Run(run);
    cluster.queue().Cancel(watch);
    out += "run " + run.ToString() + (result.ok() ? "" : " failed") + "\n";
    if (result.ok()) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "result %a %a %a %a %a\n",
                    result->gflops, result->duration_s,
                    result->system_kilojoules, result->avg_system_watts,
                    result->avg_cpu_temp);
      out += buf;
    }
    for (const auto& [t, f] : steps) {
      out += "freq " + std::to_string(t) + " " + std::to_string(f) + "\n";
    }
    for (const ipmi::PowerSample& s : runner.last_trace().samples()) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "sample %a %a %a %a\n", s.t,
                    s.system_watts, s.cpu_watts, s.cpu_temp_celsius);
      out += buf;
    }
  }
  return out + EnergyLines(cluster);
}

// A six-node fleet with the energy ledger attached and inline dispatch.
// Arrivals and fixed runtimes are whole seconds, so every node ticks on the
// same integer grid: a job's completion on one node shares its timestamp
// with other nodes' ticks. Arrivals outpace the nodes, so a backlog forms
// and each completion starts a pending job from inside the tick callback;
// that job's first tick then shares its timestamp with the re-armed ticks
// of nodes that fired before and after the completing one. A few arrivals
// sit half a second off the grid, and some jobs are HPCG runs (which end on
// whichever tick crosses their flop count) or two-node jobs. The ledger
// sums samples in firing order, so its totals pin the order of
// same-timestamp ticks bit for bit.
std::string FleetCompletionTies() {
  EnergyLedger ledger;
  ClusterConfig config;
  config.nodes = 6;
  config.energy_ledger = &ledger;
  ClusterSim cluster(config);
  const int cores = config.node.machine.cpu.cores;
  const hpcg::HpcgPerfModel perf(config.node.perf);
  const int iterations =
      perf.IterationsForDuration(hpcg::HpcgProblem::Official(), 7.3);
  for (int i = 0; i < 48; ++i) {
    const SimTime arrival = 1.0 * i + (i % 5 == 3 ? 0.5 : 0.0);
    cluster.RunUntil(arrival);
    JobRequest request = WeaveRequest(i);
    if (i % 4 == 1) {
      request.num_tasks = 8 + (i % 3) * 8;
      request.workload =
          WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(), iterations);
    } else {
      request.num_tasks = cores;
      request.workload =
          WorkloadSpec::Fixed(3.0 + (i * 5) % 9, 0.6 + 0.05 * (i % 5));
      if (i % 7 == 2) {
        request.min_nodes = 2;
        request.num_tasks = 2 * cores;
      }
    }
    (void)cluster.Submit(request);
  }
  cluster.RunUntilIdle();
  cluster.FlushIdleEnergy();
  return ScheduleLines(cluster) + EnergyLines(cluster) + "ledger " +
         ledger.ToJson().Dump() + "\n";
}

using EventScenario = std::pair<std::string, std::function<std::string()>>;

const std::vector<EventScenario>& Registry() {
  static const std::vector<EventScenario> registry = {
      {"timeseries_4partition.json", TimeseriesDump},
      {"pump_weave_closed.txt", [] { return PumpWeaveSchedule(false); }},
      {"pump_weave_live.txt", [] { return PumpWeaveSchedule(true); }},
      {"pump_weave_tick_aligned.txt", TickAlignedWeave},
      {"ipmi_hpcg_traces.csv", IpmiTraces},
      {"ondemand_ht_runs.txt", OndemandHtRuns},
      {"fleet_completion_ties.txt", FleetCompletionTies},
  };
  return registry;
}

}  // namespace

std::vector<std::string> EventGoldenNames() {
  std::vector<std::string> names;
  for (const auto& [name, run] : Registry()) names.push_back(name);
  return names;
}

std::string RunEventGolden(const std::string& name) {
  for (const auto& [candidate, run] : Registry()) {
    if (candidate == name) return run();
  }
  return "unknown event golden " + name + "\n";
}

}  // namespace eco::slurm::scenarios
