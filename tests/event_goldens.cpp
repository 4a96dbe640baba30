#include "event_goldens.hpp"

#include <functional>
#include <utility>

#include "chronus/integrations.hpp"
#include "common/telemetry/timeseries.hpp"
#include "common/thread_pool.hpp"
#include "sched_scenarios.hpp"
#include "slurm/cluster.hpp"
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

using EventScenario = std::pair<std::string, std::function<std::string()>>;

const std::vector<EventScenario>& Registry() {
  static const std::vector<EventScenario> registry = {
      {"timeseries_4partition.json", TimeseriesDump},
      {"pump_weave_closed.txt", [] { return PumpWeaveSchedule(false); }},
      {"pump_weave_live.txt", [] { return PumpWeaveSchedule(true); }},
      {"ipmi_hpcg_traces.csv", IpmiTraces},
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
