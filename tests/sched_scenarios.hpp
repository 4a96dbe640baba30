// Scheduler scenarios shared by the schedule-equivalence, partition and
// ledger suites, and the golden schedules they are checked against.
//
// The goldens under tests/golden/sched/ were captured from the retired
// legacy sort-everything engine while the suite still proved it and the
// indexed engine byte-identical. Each file is one scenario: its first line
// is the legacy engine's eco_sched_plan_candidates_total, every further
// line one job (see JobLine) or, for the ledger scenario, the ledger's JSON.
// tests/golden/regen_sched_goldens.sh rebuilds them from that engine.
//
// This file compiles against the pre-removal tree too: the regeneration
// script builds it there with ECO_GOLDEN_LEGACY defined, which selects the
// legacy engine in EngineConfig().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "slurm/cluster.hpp"
#include "slurm/workload_gen.hpp"

namespace eco {
class ThreadPool;
}  // namespace eco

namespace eco::slurm::scenarios {

// ------------------------------------------------ equivalence-suite helpers

struct Action {
  SimTime t = 0.0;
  bool is_cancel = false;
  JobRequest request;   // submit
  JobId cancel_id = 0;  // cancel
};

// A randomized scenario: submits with mixed shapes, users, dependencies and
// deliberate timeouts, plus a few cancels sprinkled over the run.
std::vector<Action> MakeScenario(std::uint64_t seed, int count,
                                 bool with_deps, bool green_comments);

// Applies the scenario; `ids` receives the cluster-assigned id of each
// submitted job (the cluster may have pre-existing jobs, e.g. the chronus
// benchmark runs, so scenario job numbers are remapped through it).
void Drive(ClusterSim& cluster, const std::vector<Action>& actions,
           std::vector<JobId>* ids);

// 6 nodes, one partition.
ClusterConfig BaseConfig(SchedulerPolicy policy, bool multifactor);

// -------------------------------------------------- partition-suite shapes

// 10 nodes split 5/5 between "a" (default) and "b".
ClusterConfig DisjointConfig();
// 8 nodes, "a" owns 0..5 and "b" owns 3..7 — nodes 3..5 are shared.
ClusterConfig OverlapConfig();
// Fixed-duration jobs routed across both partitions (and the default via
// the empty name), dense enough that queues actually form.
std::vector<GeneratedJob> MultiPartitionJobs(int count, std::uint64_t seed);

// ------------------------------------------------------ ledger-suite shape

// 16 nodes, 4 disjoint partitions of 4, deferred dispatch on `pool`.
ClusterConfig LedgerHarnessConfig(ThreadPool* pool);
// `jobs` generated fixed-duration jobs across 8 users and every partition.
std::vector<JobRequest> LedgerHarnessWorkload(const ClusterConfig& config,
                                              int jobs);

// ------------------------------------------------------------- goldens

// One scenario's schedule: per-job lines plus the planner's total
// eco_sched_plan_candidates_total.
struct GoldenRun {
  std::vector<std::string> lines;
  std::uint64_t plan_candidates = 0;
};

// "<index> <state> <start> <end> <node> <allocated> <partition> <tasks>
// <cpu_freq_max>" with both times in %a (exact) and "-" for no node.
std::string JobLine(std::size_t index, const JobRecord& job);

// Every scenario with a golden file, in a fixed order.
std::vector<std::string> GoldenScenarioNames();
// Runs one named scenario on the current engine.
GoldenRun RunGoldenScenario(const std::string& name);

// Reads a golden file; false when missing or malformed.
bool ReadGolden(const std::string& path, GoldenRun* out);
bool WriteGolden(const std::string& path, const GoldenRun& run);

}  // namespace eco::slurm::scenarios
