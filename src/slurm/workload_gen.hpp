// Synthetic fleet workload generator for scheduler / energy experiments.
//
// Produces a deterministic stream of job requests with Poisson arrivals and
// a configurable mix: HPCG-style jobs that opt into the eco plugin, wide
// multi-node jobs (head-of-line blockers that give backfill something to
// do), and narrow fixed-duration fillers. Used by the fleet ablation bench
// and the scheduler tests.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

class ClusterSim;

struct WorkloadMix {
  double hpcg_share = 0.4;        // opted-in HPCG jobs
  double wide_share = 0.2;        // multi-node blockers
  int wide_nodes = 2;
  double mean_interarrival_s = 150.0;
  double filler_min_s = 120.0;    // fixed-job duration range
  double filler_max_s = 600.0;
  int filler_min_tasks = 4;
  int filler_max_tasks = 28;
  double hpcg_target_seconds = 600.0;  // HPCG sizing at the reference config
  int users = 3;
  std::uint64_t seed = 4242;
  // When > 0, fixed-job durations are rounded up to a multiple of this (in
  // seconds). Drain benches set it to the node tick so completions land in
  // shared waves instead of one event per job; 0 leaves durations untouched.
  double duration_quantum_s = 0.0;
  // Non-empty: each job is routed uniformly at random to one of these
  // partition names. Drawn AFTER the per-job stream above, so an empty list
  // reproduces the historical single-partition stream bit-for-bit.
  std::vector<std::string> partitions;
  // Non-empty: each job gets a QOS tier drawn uniformly from this list and
  // an account of "acct-<tier>" (the ingress admission layer keys its
  // token buckets and tier rules on these). Drawn AFTER the partition draw,
  // so an empty list again reproduces the historical stream bit-for-bit.
  std::vector<std::string> qos;
};

struct GeneratedJob {
  SimTime arrival = 0.0;
  JobRequest request;
};

// `max_cores` is the per-node core count (used to size HPCG jobs);
// iterations for HPCG jobs are sized by `iterations_for_hpcg`.
std::vector<GeneratedJob> GenerateWorkload(const WorkloadMix& mix, int count,
                                           int max_cores,
                                           int iterations_for_hpcg);

class SubmitIngress;

// Filled in as the pump's arrival events fire; read it after draining.
struct PumpStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t batches = 0;  // scheduling passes triggered by the pump
  // Ingress-weave side (PumpOptions::ingress): requests pulled out of the
  // ingress and the drain passes that carried them.
  std::size_t ingress_drained = 0;
  std::size_t ingress_batches = 0;
};

// Knobs for PumpWorkload. The ingress weave is how network
// storms (subd connections feeding a SubmitIngress) and generated
// workloads compose on one sim: alongside the arrival event, the pump
// runs ONE periodic drain task that empties the ingress into a
// coalesced SubmitBatch every `ingress_window_s` of sim time. Drained
// requests enter in ascending-seq order (the SubmitIngress contract), so
// the resulting schedule is byte-identical to a serial per-call Submit
// loop at any connection/producer count.
//
// The drain task cancels itself once the ingress is closed AND empty —
// that is what lets RunUntilIdle() terminate. Close the ingress only
// after every producer has observed its replies (a reply in hand means
// the enqueue completed), or the final window may miss an in-flight
// request.
struct PumpOptions {
  // Arrival-batching window for the generated jobs (see PumpWorkload).
  double coalesce_s = 0.0;
  // Non-null: weave the ingress-drain task into the pump.
  SubmitIngress* ingress = nullptr;
  // Sim-seconds between ingress drains (clamped to > 0).
  double ingress_window_s = 1.0;
};

// Feeds `jobs` (must be sorted by arrival; GenerateWorkload output already
// is) into the cluster via its event queue using ONE in-flight event that
// re-arms itself — pumping 10^6 jobs never holds 10^6 arrival events.
// `jobs` may be empty — a pure network front door runs the drain alone.
//
// `coalesce_s` > 0 groups every job arriving within that window into a
// single SubmitBatch fired at the window's end (jobs are submitted at most
// `coalesce_s` late). 0 submits each arrival at its exact time — with
// distinct arrival timestamps that is event-for-event identical to a manual
// RunUntil+Submit loop (exact ties are batched into one scheduling pass).
std::shared_ptr<PumpStats> PumpWorkload(ClusterSim& cluster,
                                        std::vector<GeneratedJob> jobs,
                                        const PumpOptions& options = {});

}  // namespace eco::slurm
