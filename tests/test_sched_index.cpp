// Unit tests for the million-job scheduling structures: PendingIndex order
// fidelity against a brute-force sort, NodeTimeline shadow computation
// against the reference release scan, the indexed planner against the
// reference planner (ref_sched.hpp), the EventQueue's equal-timestamp FIFO
// contract, the incremental fair-share total, the perf counters, and the
// batched submission paths (SubmitBatch / SubmitScripts / PumpWorkload).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/perf.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "ref_sched.hpp"
#include "slurm/cluster.hpp"
#include "slurm/sbatch.hpp"
#include "slurm/sched_index.hpp"
#include "slurm/scheduler.hpp"
#include "slurm/workload_gen.hpp"

namespace eco::slurm {
namespace {

// ------------------------------------------------------------ PendingIndex

struct RefJob {
  IndexedJob job;
  bool present = true;
};

// The order the legacy engine would produce: full recompute + sort.
std::vector<JobId> BruteForceOrder(const std::vector<RefJob>& jobs,
                                   const MultifactorPriority& priority,
                                   const FairShareTracker& fairshare,
                                   SimTime now, bool multifactor) {
  struct Entry {
    JobId id;
    double p;
    std::uint64_t tiebreak;
  };
  std::vector<Entry> entries;
  for (const RefJob& ref : jobs) {
    if (!ref.present) continue;
    const double p =
        multifactor
            ? priority.ComputeFromFactors(
                  std::max(0.0, now - ref.job.eligible_time),
                  ref.job.size_factor, fairshare.Factor(ref.job.user, now))
            : 0.0;
    entries.push_back({ref.job.id, p, ref.job.tiebreak});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.p != b.p) return a.p > b.p;
    return a.tiebreak < b.tiebreak;
  });
  std::vector<JobId> out;
  for (const Entry& e : entries) out.push_back(e.id);
  return out;
}

std::vector<JobId> DrainCursor(PendingIndex& index, SimTime now,
                               std::vector<double>* priorities = nullptr) {
  std::vector<JobId> out;
  auto cursor = index.Scan(now);
  while (auto candidate = cursor.Next()) {
    out.push_back(candidate->job->id);
    if (priorities != nullptr) priorities->push_back(candidate->priority);
  }
  return out;
}

TEST(PendingIndex, MatchesBruteForceOrderAcrossInsertEraseAndSaturation) {
  MultifactorWeights weights;
  weights.max_age_seconds = 500.0;  // small, so scans cross saturation
  MultifactorPriority priority(weights, 256);
  FairShareTracker fairshare(3600.0);
  PendingIndex index(&priority, &fairshare, /*multifactor=*/true);

  Rng rng(7);
  std::vector<RefJob> jobs;
  JobId next_id = 1;
  std::uint64_t tiebreak = 0;
  const auto insert_random = [&](SimTime eligible) {
    IndexedJob job;
    job.id = next_id++;
    job.user = static_cast<std::uint32_t>(rng.NextBounded(6));
    job.tiebreak = tiebreak++;
    job.nodes_needed = rng.UniformInt(1, 4);
    job.time_limit_s = rng.Uniform(60.0, 600.0);
    job.eligible_time = eligible;
    job.size_factor =
        priority.SizeFactor(rng.UniformInt(1, 64), job.nodes_needed);
    index.Insert(job);
    jobs.push_back({job, true});
  };

  for (int i = 0; i < 120; ++i) insert_random(rng.Uniform(0.0, 300.0));
  fairshare.AddUsage(1, 5000.0, 100.0);
  fairshare.AddUsage(3, 900.0, 150.0);

  // Scan times straddle the 500 s age saturation of the earliest jobs.
  for (const SimTime now : {300.0, 450.0, 700.0, 1200.0, 9000.0}) {
    ASSERT_EQ(DrainCursor(index, now),
              BruteForceOrder(jobs, priority, fairshare, now, true))
        << "at t=" << now;
    // Mutate between scans: erase a third, add a few fresh arrivals.
    for (RefJob& ref : jobs) {
      if (ref.present && rng.Chance(0.3)) {
        ref.present = false;
        EXPECT_TRUE(index.Erase(ref.job.id));
      }
    }
    for (int i = 0; i < 10; ++i) insert_random(now);
    fairshare.AddUsage(static_cast<std::uint32_t>(rng.NextBounded(6)),
                       rng.Uniform(10.0, 2000.0), now);
  }
}

TEST(PendingIndex, CursorPriorityIsBitwiseIdenticalToLegacyFormula) {
  MultifactorPriority priority(MultifactorWeights{}, 128);
  FairShareTracker fairshare;
  fairshare.AddUsage(2, 1234.5, 10.0);
  PendingIndex index(&priority, &fairshare, true);

  IndexedJob job;
  job.id = 9;
  job.user = 2;
  job.tiebreak = 0;
  job.eligible_time = 4.0;
  job.size_factor = priority.SizeFactor(32, 2);
  index.Insert(job);

  std::vector<double> priorities;
  DrainCursor(index, 64.0, &priorities);
  ASSERT_EQ(priorities.size(), 1u);
  const double expected = priority.ComputeFromFactors(
      60.0, priority.SizeFactor(32, 2), fairshare.Factor(2, 64.0));
  EXPECT_EQ(priorities[0], expected);  // bitwise, not approximate
}

TEST(PendingIndex, SameUserOrderFlipsAtAgeSaturation) {
  MultifactorWeights weights;
  weights.max_age_seconds = 100.0;
  MultifactorPriority priority(weights, 100);
  FairShareTracker fairshare;
  PendingIndex index(&priority, &fairshare, true);

  // A is older; B asks for more cores. Young: A's age lead wins. Once both
  // age factors pin at 1, B's size bonus wins — the growing/saturated split
  // exists precisely because this flip happens within one user's bucket.
  IndexedJob a{/*id=*/1, /*user=*/0, /*tiebreak=*/0, 1, 60.0,
               /*eligible=*/0.0, priority.SizeFactor(10, 1)};
  IndexedJob b{/*id=*/2, /*user=*/0, /*tiebreak=*/1, 1, 60.0,
               /*eligible=*/50.0, priority.SizeFactor(90, 1)};
  index.Insert(a);
  index.Insert(b);

  EXPECT_EQ(DrainCursor(index, 60.0), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(DrainCursor(index, 500.0), (std::vector<JobId>{2, 1}));
}

TEST(PendingIndex, NonMultifactorModeIsPureSubmissionOrder) {
  MultifactorPriority priority(MultifactorWeights{}, 100);
  FairShareTracker fairshare;
  PendingIndex index(&priority, &fairshare, /*multifactor=*/false);

  Rng rng(11);
  std::vector<RefJob> jobs;
  for (JobId id = 1; id <= 40; ++id) {
    IndexedJob job;
    job.id = id;
    job.user = static_cast<std::uint32_t>(rng.NextBounded(4));
    job.tiebreak = id;  // insertion order
    job.eligible_time = rng.Uniform(0.0, 100.0);
    job.size_factor = rng.NextDouble();
    index.Insert(job);
    jobs.push_back({job, true});
  }
  ASSERT_EQ(DrainCursor(index, 50.0),
            BruteForceOrder(jobs, priority, fairshare, 50.0, false));
}

TEST(PendingIndex, EraseAndContainsBookkeeping) {
  MultifactorPriority priority(MultifactorWeights{}, 100);
  FairShareTracker fairshare;
  PendingIndex index(&priority, &fairshare, true);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Erase(1));

  IndexedJob job;
  job.id = 1;
  job.size_factor = 0.1;
  index.Insert(job);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Contains(1));
  EXPECT_TRUE(index.Erase(1));
  EXPECT_FALSE(index.Contains(1));
  EXPECT_TRUE(index.empty());
  // A stale saturation-heap entry for the erased job must not resurrect it.
  EXPECT_TRUE(DrainCursor(index, 1e9).empty());
}

// ------------------------------------------------------------ NodeTimeline

TEST(NodeTimeline, ShadowMatchesLegacyReleaseScan) {
  Rng rng(23);
  NodeTimeline timeline;
  std::map<JobId, std::pair<SimTime, int>> reference;  // id -> (end, nodes)

  JobId next = 1;
  for (int step = 0; step < 300; ++step) {
    if (reference.empty() || rng.Chance(0.6)) {
      const SimTime end = rng.Uniform(0.0, 1000.0);
      const int nodes = rng.UniformInt(1, 8);
      timeline.Add(next, end, nodes);
      reference[next] = {end, nodes};
      ++next;
    } else {
      const auto victim = std::next(
          reference.begin(),
          static_cast<long>(rng.NextBounded(reference.size())));
      timeline.Remove(victim->first);
      reference.erase(victim);
    }
    ASSERT_EQ(timeline.size(), reference.size());

    // Replays the exact loop the legacy planner ran over its sorted
    // releases vector, with (when, id) tie order.
    const int free_now = rng.UniformInt(0, 4);
    const int needed = rng.UniformInt(1, 16);
    const SimTime now = rng.Uniform(0.0, 500.0);
    std::vector<std::pair<std::pair<SimTime, JobId>, int>> releases(
        reference.size());
    std::transform(reference.begin(), reference.end(), releases.begin(),
                   [](const auto& kv) {
                     return std::make_pair(
                         std::make_pair(kv.second.first, kv.first),
                         kv.second.second);
                   });
    std::sort(releases.begin(), releases.end());
    SimTime shadow_time = now;
    int avail = free_now;
    int spare = 0;
    bool reserved = false;
    for (const auto& [key, nodes] : releases) {
      if (avail >= needed) break;
      avail += nodes;
      shadow_time = key.first;
      if (avail >= needed) {
        spare = avail - needed;
        reserved = true;
        break;
      }
    }

    const auto shadow = timeline.ComputeShadow(free_now, needed, now);
    ASSERT_EQ(shadow.reserved, reserved);
    if (reserved) {
      ASSERT_EQ(shadow.time, shadow_time);
      ASSERT_EQ(shadow.spare_nodes, spare);
    }
  }
}

TEST(NodeTimeline, RemoveIsIdempotentAndTieOrderIsById) {
  NodeTimeline timeline;
  timeline.Add(2, 100.0, 3);
  timeline.Add(1, 100.0, 5);  // same release time: id 1 scans first
  timeline.Remove(7);         // never added: no-op
  const auto shadow = timeline.ComputeShadow(0, 5, 0.0);
  EXPECT_TRUE(shadow.reserved);
  EXPECT_EQ(shadow.time, 100.0);
  EXPECT_EQ(shadow.spare_nodes, 0);  // job 1 alone satisfied the head
  timeline.Remove(1);
  timeline.Remove(1);
  EXPECT_EQ(timeline.size(), 1u);
}

// -------------------------------------- planner vs the reference planner

// PlanScheduleIndexed (bf_max_job_test = 0) must start exactly the jobs, in
// exactly the order, that the sort-everything ref::PlanSchedule starts, at
// the priorities MultifactorPriority::Compute gives them. Each random state
// has 32-48 running jobs whose releases share four end times, so more than
// 16 releases tie: past libstdc++'s insertion-sort cutoff, where an
// unstable sort reorders equal keys and moves the shadow's spare count.
TEST(PlanDifferential, IndexedPlannerMatchesReferencePlanner) {
  constexpr SimTime kNow = 5000.0;
  int states = 0;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kBackfill}) {
    for (const bool multifactor : {false, true}) {
      Rng rng((policy == SchedulerPolicy::kFifo ? 110 : 120) +
              (multifactor ? 1 : 0));
      for (int trial = 0; trial < 300; ++trial) {
        MultifactorWeights weights;
        weights.max_age_seconds = rng.Chance(0.5) ? 2000.0 : 7 * 24 * 3600.0;
        const MultifactorPriority priority(weights, 512);
        FairShareTracker fairshare(1800.0);
        for (std::uint32_t user = 0; user < 6; ++user) {
          if (rng.Chance(0.7)) {
            fairshare.AddUsage(user, rng.Uniform(0.0, 5e4),
                               rng.Uniform(0.0, kNow));
          }
        }

        // Running set, ids ascending (the reference planner's contract);
        // ids interleave with the pending ones.
        NodeTimeline timeline;
        std::vector<ref::RunningInput> running;
        int held = 0;
        const int running_jobs = rng.UniformInt(32, 48);
        for (int i = 0; i < running_jobs; ++i) {
          const JobId id = static_cast<JobId>(2 * i + 1);
          const int nodes = rng.UniformInt(1, 3);
          const SimTime end = kNow + 60.0 * rng.UniformInt(1, 4);
          timeline.Add(id, end, nodes);
          running.push_back({nodes, end});
          held += nodes;
        }
        const int free_nodes = rng.UniformInt(0, 8);

        PendingIndex index(&priority, &fairshare, multifactor);
        std::vector<ref::PlanInput> pending;
        std::map<JobId, double> expected_priority;
        const int pending_jobs = rng.UniformInt(1, 60);
        for (int i = 0; i < pending_jobs; ++i) {
          JobRecord record;
          record.id = static_cast<JobId>(1000 + i);
          record.request.user_id =
              static_cast<std::uint32_t>(rng.NextBounded(6));
          record.request.min_nodes = rng.UniformInt(1, 6);
          record.request.num_tasks = 8 * record.request.min_nodes;
          record.request.time_limit_s =
              60.0 * rng.UniformInt(1, 6) - (rng.Chance(0.2) ? 30.0 : 0.0);
          record.eligible_time = rng.Uniform(0.0, kNow);
          // Submission order is a shuffle of the ids, so ties on priority
          // (every job when multifactor is off) break by it, not by id.
          const std::uint64_t tiebreak = rng.NextBounded(1u << 20) * 64 + i;

          IndexedJob job;
          job.id = record.id;
          job.user = record.request.user_id;
          job.tiebreak = tiebreak;
          job.nodes_needed = record.request.min_nodes;
          job.time_limit_s = record.request.time_limit_s;
          job.eligible_time = record.eligible_time;
          job.size_factor = priority.SizeFactor(record.request.num_tasks,
                                                record.request.min_nodes);
          index.Insert(job);

          const double p =
              multifactor ? priority.Compute(record, kNow, fairshare) : 0.0;
          pending.push_back({record.id, record.request.min_nodes,
                             record.request.time_limit_s, p, tiebreak});
          expected_priority[record.id] = p;
        }

        const IndexedPlan plan =
            PlanScheduleIndexed(policy, index, timeline, free_nodes, kNow,
                                /*backfill_max_job_test=*/0);
        const std::vector<JobId> expected =
            ref::PlanSchedule(policy, pending, running, free_nodes,
                              held + free_nodes, kNow);
        std::vector<JobId> actual;
        for (const auto& start : plan.starts) {
          actual.push_back(start.id);
          ASSERT_EQ(start.priority, expected_priority.at(start.id))
              << "job " << start.id << " trial " << trial;
        }
        ASSERT_EQ(actual, expected)
            << (policy == SchedulerPolicy::kFifo ? "fifo" : "backfill")
            << (multifactor ? "/multifactor" : "/submit-order") << " trial "
            << trial;
        ++states;
      }
    }
  }
  EXPECT_GE(states, 1000);
}

// ------------------------------------------- EventQueue determinism contract

TEST(EventQueue, EqualTimestampEventsFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.ScheduleAt(10.0, [&order, i](SimTime) { order.push_back(i); });
  }
  queue.RunAll();
  std::vector<int> expected(50);
  for (int i = 0; i < 50; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CancellationsPreserveRemainingOrder) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(
        queue.ScheduleAt(5.0, [&order, i](SimTime) { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 2) {
    EXPECT_TRUE(queue.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  queue.RunAll();
  std::vector<int> expected;
  for (int i = 1; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, SameTimeEventScheduledMidEventRunsAfterExistingOnes) {
  EventQueue queue;
  std::vector<std::string> order;
  queue.ScheduleAt(1.0, [&](SimTime now) {
    order.push_back("first");
    // Scheduled DURING t=1 processing, for t=1: must run after "second",
    // which was already queued for this timestamp. This is what lets a
    // deferred dispatch pass observe every same-time submission.
    queue.ScheduleAt(now, [&](SimTime) { order.push_back("late"); });
  });
  queue.ScheduleAt(1.0, [&](SimTime) { order.push_back("second"); });
  queue.RunAll();
  EXPECT_EQ(order,
            (std::vector<std::string>{"first", "second", "late"}));
}

TEST(EventQueue, PeekNextTimeSkipsCancelledTombstones) {
  EventQueue queue;
  const auto id = queue.ScheduleAt(3.0, [](SimTime) {});
  queue.ScheduleAt(8.0, [](SimTime) {});
  EXPECT_EQ(queue.PeekNextTime(), 3.0);
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_EQ(queue.PeekNextTime(), 8.0);
  queue.RunAll();
  EXPECT_EQ(queue.PeekNextTime(-1.0), -1.0);
}

// ----------------------------------------------- FairShare incremental total

TEST(FairShare, IncrementalTotalMatchesBruteForceReference) {
  const double half_life = 1800.0;
  FairShareTracker tracker(half_life);
  std::map<std::uint32_t, std::pair<double, SimTime>> reference;

  Rng rng(99);
  SimTime now = 0.0;
  for (int i = 0; i < 500; ++i) {
    now += rng.Uniform(0.0, 400.0);
    const auto user = static_cast<std::uint32_t>(rng.NextBounded(20));
    const double usage = rng.Uniform(1.0, 5000.0);
    tracker.AddUsage(user, usage, now);
    auto& entry = reference[user];
    entry.first =
        entry.first * std::pow(0.5, (now - entry.second) / half_life) + usage;
    entry.second = now;

    if (i % 25 != 0) continue;
    const auto probe = static_cast<std::uint32_t>(rng.NextBounded(22));
    // The old implementation summed every user's decayed usage per query.
    double total = 0.0;
    for (const auto& [u, e] : reference) {
      total += e.first * std::pow(0.5, (now - e.second) / half_life);
    }
    const double average = total / static_cast<double>(reference.size());
    double mine = 0.0;
    const auto it = reference.find(probe);
    if (it != reference.end()) {
      mine = it->second.first *
             std::pow(0.5, (now - it->second.second) / half_life);
    }
    const double expected =
        average <= 0.0 ? 1.0 : std::pow(2.0, -mine / average);
    EXPECT_NEAR(tracker.Factor(probe, now), expected, 1e-9)
        << "user " << probe << " at t=" << now;
  }
  EXPECT_EQ(tracker.user_count(), reference.size());
}

// ------------------------------------------------------------ perf counters

TEST(Perf, ScopedTimerAccumulatesAndNullSinkIsNoop) {
  std::uint64_t sink = 0;
  {
    ScopedTimer timer(&sink);
    volatile double x = 1.0;
    for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
  }
  EXPECT_GT(sink, 0u);
  const std::uint64_t before = sink;
  { ScopedTimer timer(nullptr); }
  EXPECT_EQ(sink, before);
  { ScopedTimer timer(&sink); }
  EXPECT_GE(sink, before);
}

TEST(Perf, FormatNanosPicksSensibleUnits) {
  EXPECT_EQ(FormatNanos(250), "250 ns");
  EXPECT_EQ(FormatNanos(2'500), "2.500 us");
  EXPECT_EQ(FormatNanos(2'500'000), "2.500 ms");
  EXPECT_EQ(FormatNanos(2'500'000'000ull), "2.500 s");
}

// --------------------------------------------------- batched submission

ClusterConfig SmallCluster(int nodes = 4) {
  ClusterConfig config;
  config.nodes = nodes;
  return config;
}

JobRequest FixedJob(const std::string& name, double seconds,
                    std::uint32_t user = 1000) {
  JobRequest request;
  request.name = name;
  request.user_id = user;
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(seconds, 0.8);
  request.time_limit_s = seconds * 4.0;
  return request;
}

TEST(SubmitBatch, OneSchedulingPassAndPerSlotResults) {
  ClusterSim cluster(SmallCluster());
  std::vector<JobRequest> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(FixedJob("b" + std::to_string(i), 30.0));
  }
  batch[2].min_nodes = 99;  // rejected: bad node count
  const auto results = cluster.SubmitBatch(std::move(batch));
  ASSERT_EQ(results.size(), 6u);
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(ReadSchedMetric(cluster, "dispatch_calls_total"), 1u);
  EXPECT_EQ(ReadSchedMetric(cluster, "submit_calls_total"), 6u);

  cluster.RunUntilIdle();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(cluster.GetJob(*results[i])->state, JobState::kCompleted);
  }
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total"), 5u);
  EXPECT_GE(ReadSchedMetric(cluster, "pending_peak"), 5u);
  EXPECT_GE(ReadSchedMetric(cluster, "timeline_peak"), 1u);
}

TEST(SubmitBatch, SubmitScriptsKeepsSlotAlignmentOnParseFailure) {
  ClusterSim cluster(SmallCluster());
  JobRequest base;
  base.workload = WorkloadSpec::Fixed(10.0, 0.8);
  base.time_limit_s = 100.0;
  base.num_tasks = 0;  // scripts must set --ntasks themselves
  const std::vector<std::string> scripts = {
      GenerateHpcgScript(4, kHz(2'500'000), 1, "xhpcg"),
      "#!/bin/bash\n# no ntasks here\n",
      GenerateHpcgScript(8, kHz(2'000'000), 2, "xhpcg"),
  };
  const auto results = SubmitScripts(cluster, scripts, base);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(cluster.GetJob(*results[2])->request.num_tasks, 8);
  EXPECT_EQ(ReadSchedMetric(cluster, "dispatch_calls_total"), 1u);
}

TEST(DeferDispatch, CoalescesSameTimestampPassesAndDrainsIdentically) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;  // fixed-duration jobs only: fast to simulate
  mix.wide_share = 0.3;
  mix.mean_interarrival_s = 20.0;
  auto jobs = GenerateWorkload(mix, 50, 16, 1);

  ClusterConfig eager = SmallCluster();
  ClusterConfig deferred = SmallCluster();
  deferred.defer_dispatch = true;

  ClusterSim a(eager);
  ClusterSim b(deferred);
  PumpWorkload(a, jobs);
  PumpWorkload(b, jobs);
  a.RunUntilIdle();
  b.RunUntilIdle();

  for (JobId id = 1; id <= 50; ++id) {
    const auto ja = a.GetJob(id);
    const auto jb = b.GetJob(id);
    ASSERT_TRUE(ja.has_value() && jb.has_value());
    EXPECT_EQ(ja->state, jb->state) << "job " << id;
    EXPECT_EQ(ja->start_time, jb->start_time) << "job " << id;
    EXPECT_EQ(ja->end_time, jb->end_time) << "job " << id;
  }
  EXPECT_LE(ReadSchedMetric(b, "dispatch_calls_total"),
            ReadSchedMetric(a, "dispatch_calls_total"));
}

TEST(PumpWorkload, MatchesManualSubmitLoopExactly) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.2;
  mix.mean_interarrival_s = 45.0;
  mix.seed = 77;
  const auto jobs = GenerateWorkload(mix, 40, 16, 1);

  ClusterSim pumped(SmallCluster());
  const auto stats = PumpWorkload(pumped, jobs);
  pumped.RunUntilIdle();
  EXPECT_EQ(stats->submitted, 40u);
  EXPECT_EQ(stats->rejected, 0u);

  ClusterSim manual(SmallCluster());
  for (const auto& job : jobs) {
    manual.RunUntil(job.arrival);
    ASSERT_TRUE(manual.Submit(job.request).ok());
  }
  manual.RunUntilIdle();

  for (JobId id = 1; id <= 40; ++id) {
    const auto jp = pumped.GetJob(id);
    const auto jm = manual.GetJob(id);
    ASSERT_TRUE(jp.has_value() && jm.has_value());
    EXPECT_EQ(jp->state, jm->state) << "job " << id;
    EXPECT_EQ(jp->submit_time, jm->submit_time) << "job " << id;
    EXPECT_EQ(jp->start_time, jm->start_time) << "job " << id;
    EXPECT_EQ(jp->end_time, jm->end_time) << "job " << id;
  }
}

TEST(PumpWorkload, CoalescingWindowBatchesArrivals) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.0;
  mix.mean_interarrival_s = 5.0;
  mix.duration_quantum_s = 60.0;  // durations snap to whole ticks
  auto jobs = GenerateWorkload(mix, 60, 16, 1);
  for (const auto& job : jobs) {
    const double duration = job.request.workload.fixed_duration_s;
    EXPECT_EQ(duration, std::ceil(duration / 60.0) * 60.0);
  }

  ClusterSim cluster(SmallCluster());
  const auto stats = PumpWorkload(cluster, std::move(jobs), {.coalesce_s = 120.0});
  cluster.RunUntilIdle();
  EXPECT_EQ(stats->submitted, 60u);
  EXPECT_LT(stats->batches, 60u);  // several arrivals per window
  for (JobId id = 1; id <= 60; ++id) {
    EXPECT_EQ(cluster.GetJob(id)->state, JobState::kCompleted);
  }
}

}  // namespace
}  // namespace eco::slurm
