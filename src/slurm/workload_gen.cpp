#include "slurm/workload_gen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"

namespace eco::slurm {

namespace {
// Round a fixed-job duration up to the mix's quantum (0 = untouched). Applied
// after the rng draws so quantum 0 reproduces the historical stream exactly.
double Quantize(double seconds, double quantum) {
  if (quantum <= 0.0) return seconds;
  return std::ceil(seconds / quantum) * quantum;
}
}  // namespace

std::vector<GeneratedJob> GenerateWorkload(const WorkloadMix& mix, int count,
                                           int max_cores,
                                           int iterations_for_hpcg) {
  std::vector<GeneratedJob> out;
  out.reserve(static_cast<std::size_t>(std::max(0, count)));
  Rng rng(mix.seed);
  SimTime clock = 0.0;

  for (int i = 0; i < count; ++i) {
    // Poisson arrivals: exponential inter-arrival times.
    clock += -mix.mean_interarrival_s * std::log(1.0 - rng.NextDouble());

    GeneratedJob job;
    job.arrival = clock;
    JobRequest& request = job.request;
    request.user_id = 1000 + static_cast<std::uint32_t>(
                                 rng.NextBounded(std::max(1, mix.users)));

    const double kind = rng.NextDouble();
    if (kind < mix.hpcg_share) {
      request.name = "hpcg-" + std::to_string(i);
      request.num_tasks = max_cores;
      request.threads_per_core = rng.Chance(0.5) ? 2 : 1;
      request.comment = "chronus";
      request.script = "srun --mpi=pmix_v4 ../hpcg/build/bin/xhpcg\n";
      request.workload = WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(),
                                            iterations_for_hpcg);
      request.time_limit_s = mix.hpcg_target_seconds * 6.0;
    } else if (kind < mix.hpcg_share + mix.wide_share) {
      request.name = "wide-" + std::to_string(i);
      request.min_nodes = mix.wide_nodes;
      request.num_tasks = max_cores * mix.wide_nodes;
      request.workload = WorkloadSpec::Fixed(
          Quantize(rng.Uniform(mix.filler_max_s * 0.5, mix.filler_max_s),
                   mix.duration_quantum_s),
          0.9);
      request.time_limit_s = mix.filler_max_s * 2.5;
    } else {
      request.name = "filler-" + std::to_string(i);
      request.num_tasks =
          rng.UniformInt(mix.filler_min_tasks, mix.filler_max_tasks);
      request.workload = WorkloadSpec::Fixed(
          Quantize(rng.Uniform(mix.filler_min_s, mix.filler_max_s),
                   mix.duration_quantum_s),
          rng.Uniform(0.6, 0.95));
      request.time_limit_s = mix.filler_max_s * 1.5;
    }
    if (!mix.partitions.empty()) {
      request.partition =
          mix.partitions[rng.NextBounded(mix.partitions.size())];
    }
    if (!mix.qos.empty()) {
      request.qos = mix.qos[rng.NextBounded(mix.qos.size())];
      request.account = "acct-" + request.qos;
    }
    out.push_back(std::move(job));
  }
  return out;
}

namespace {

// The pump keeps exactly one arrival event in flight: each firing submits
// every job whose arrival falls inside the coalescing window, then re-arms
// for the next window. Shared ownership keeps the state alive for as long
// as a scheduled event still references it.
struct PumpState {
  ClusterSim* cluster = nullptr;
  std::vector<GeneratedJob> jobs;
  std::size_t next = 0;
  double coalesce_s = 0.0;
  std::shared_ptr<PumpStats> stats;
};

void ArmPump(const std::shared_ptr<PumpState>& state);

void CountResults(const std::vector<Result<JobId>>& results,
                  PumpStats& stats) {
  for (const auto& result : results) {
    if (result.ok()) {
      ++stats.submitted;
    } else {
      ++stats.rejected;
    }
  }
}

void FirePump(const std::shared_ptr<PumpState>& state, SimTime now) {
  std::vector<JobRequest> batch;
  // The event fired at the window's last arrival, so every due job has
  // arrival <= now exactly (arrivals are sorted).
  while (state->next < state->jobs.size() &&
         state->jobs[state->next].arrival <= now) {
    batch.push_back(std::move(state->jobs[state->next].request));
    ++state->next;
  }
  if (!batch.empty()) {
    CountResults(state->cluster->SubmitBatch(std::move(batch)),
                 *state->stats);
    ++state->stats->batches;
  }
  ArmPump(state);
}

void ArmPump(const std::shared_ptr<PumpState>& state) {
  if (state->next >= state->jobs.size()) return;
  // Fire at the window's END so every member has arrived by then; members
  // are therefore submitted at most coalesce_s after their true arrival.
  std::size_t last = state->next;
  const SimTime window_end = state->jobs[last].arrival + state->coalesce_s;
  while (last + 1 < state->jobs.size() &&
         state->jobs[last + 1].arrival <= window_end) {
    ++last;
  }
  state->cluster->queue().ScheduleAt(
      state->jobs[last].arrival,
      [state](SimTime now) { FirePump(state, now); });
}

// One ingress-drain pass: empties the ingress (ascending-seq order — the
// determinism contract lives there) into one coalesced SubmitBatch.
void DrainIngress(ClusterSim& cluster, SubmitIngress& ingress,
                  PumpStats& stats) {
  auto pending = ingress.Drain();
  if (pending.empty()) return;
  std::vector<JobRequest> batch;
  batch.reserve(pending.size());
  for (auto& entry : pending) batch.push_back(std::move(entry.request));
  CountResults(cluster.SubmitBatch(std::move(batch)), stats);
  ++stats.ingress_batches;
  stats.ingress_drained += pending.size();
}

}  // namespace

std::shared_ptr<PumpStats> PumpWorkload(ClusterSim& cluster,
                                        std::vector<GeneratedJob> jobs,
                                        const PumpOptions& options) {
  auto stats = std::make_shared<PumpStats>();
  if (!jobs.empty()) {
    auto state = std::make_shared<PumpState>();
    state->cluster = &cluster;
    state->jobs = std::move(jobs);
    state->coalesce_s = std::max(0.0, options.coalesce_s);
    state->stats = stats;
    ArmPump(state);
  }
  if (options.ingress != nullptr) {
    SubmitIngress* ingress = options.ingress;
    // Closed AND empty = no request can ever arrive again (Close() rejects
    // new submits; producers that got an OK reply are already enqueued).
    const auto finished = [ingress] {
      return ingress->closed() && ingress->backlog() == 0;
    };
    // Drain whatever is already queued at install time, then once a window
    // until the ingress is finished.
    DrainIngress(cluster, *ingress, *stats);
    if (!finished()) {
      const double window =
          options.ingress_window_s > 0.0 ? options.ingress_window_s : 1.0;
      auto task = std::make_shared<std::uint64_t>();
      *task = cluster.queue().ScheduleEvery(
          cluster.queue().now() + window, window,
          [&cluster, ingress, stats, task, finished](SimTime) {
            DrainIngress(cluster, *ingress, *stats);
            if (finished()) cluster.queue().Cancel(*task);
          });
    }
  }
  return stats;
}

}  // namespace eco::slurm
