// Reference EASY planner: the sort-everything planning pass the retired
// legacy engine ran, kept in the test tree as the oracle the product's
// indexed planner (PlanScheduleIndexed, sched_index.hpp) is checked against.
// It keeps no state between passes: it sorts the whole pending list by
// (priority desc, submission order asc), starts jobs until one is blocked,
// and derives the blocked head's shadow from a sort of the running set's
// release times.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_clock.hpp"
#include "slurm/job.hpp"
#include "slurm/scheduler.hpp"

namespace eco::slurm::ref {

// One pending job as seen by the planner.
struct PlanInput {
  JobId id = 0;
  int nodes_needed = 1;
  double time_limit_s = 0.0;
  double priority = 0.0;
  std::uint64_t tiebreak = 0;  // submission order
};

// A running job's resource horizon.
struct RunningInput {
  int nodes_held = 1;
  SimTime expected_end = 0.0;  // start + time_limit
};

// Decides which pending jobs to start *now*. FIFO: highest-priority first,
// stop at the first job that does not fit. Backfill (EASY): the blocked head
// gets a shadow reservation; lower-priority jobs may start only if they fit
// in the spare nodes and finish (by time limit) before the shadow time.
//
// `running` must be in ascending job-id order: releases that share an
// expected_end are scanned in that order (a stable sort), which is the
// (release time, job id) order NodeTimeline::ComputeShadow uses.
std::vector<JobId> PlanSchedule(SchedulerPolicy policy,
                                std::vector<PlanInput> pending,
                                const std::vector<RunningInput>& running,
                                int free_nodes, int total_nodes, SimTime now);

}  // namespace eco::slurm::ref
