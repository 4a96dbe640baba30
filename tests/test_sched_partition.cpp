// Multi-partition sharded scheduler suite.
//
// Covers the sharding contract from DESIGN.md "Scheduler complexity":
//   - partitions own real node sets (ranges, clamping, overlap detection,
//     per-node partition tags);
//   - routing: an empty partition name selects the default, a non-empty name
//     must match exactly (a non-default partition literally named "batch" is
//     honoured, not rerouted — the historical special-case bug);
//   - isolation: a 100k-job backlog in one partition does not delay a lone
//     job in a disjoint partition, and never enters its planning loop;
//   - determinism: the schedule is bitwise identical at pool sizes 1/4/8,
//     for both the parallel disjoint path and the serial overlap path;
//   - multi-partition schedules identical to the retired legacy engine's,
//     pinned as goldens (tests/golden/sched/).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sched_golden.hpp"
#include "slurm/cluster.hpp"
#include "slurm/workload_gen.hpp"

namespace eco::slurm {
namespace {

class SchedPartition : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override { Logger::Instance().SetLevel(LogLevel::kInfo); }
};

using scenarios::DisjointConfig;
using scenarios::ExpectMatchesGolden;
using scenarios::MultiPartitionJobs;
using scenarios::OverlapConfig;

struct ScheduleRow {
  JobState state = JobState::kPending;
  SimTime start = 0.0;
  SimTime end = 0.0;
  std::string node;
  int allocated = 0;
  std::string partition;
  bool operator==(const ScheduleRow&) const = default;
};

std::vector<ScheduleRow> RunWorkload(const ClusterConfig& config,
                                     const std::vector<GeneratedJob>& jobs) {
  ClusterSim cluster(config);
  std::vector<JobId> ids;
  for (const auto& job : jobs) {
    cluster.RunUntil(job.arrival);
    const auto id = cluster.Submit(job.request);
    EXPECT_TRUE(id.ok()) << id.message();
    if (id.ok()) ids.push_back(*id);
  }
  cluster.RunUntilIdle();
  std::vector<ScheduleRow> out;
  for (const JobId id : ids) {
    const auto job = cluster.GetJob(id);
    EXPECT_TRUE(job.has_value());
    out.push_back({job->state, job->start_time, job->end_time, job->node,
                   job->allocated_nodes, job->request.partition});
  }
  return out;
}

void ExpectSameSchedule(const std::vector<ScheduleRow>& a,
                        const std::vector<ScheduleRow>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].state, b[i].state) << label << " job " << i + 1;
    EXPECT_EQ(a[i].start, b[i].start) << label << " job " << i + 1;
    EXPECT_EQ(a[i].end, b[i].end) << label << " job " << i + 1;
    EXPECT_EQ(a[i].node, b[i].node) << label << " job " << i + 1;
    EXPECT_EQ(a[i].allocated, b[i].allocated) << label << " job " << i + 1;
    EXPECT_EQ(a[i].partition, b[i].partition) << label << " job " << i + 1;
  }
}

TEST_F(SchedPartition, NodeAssignmentTagsAndOverlapDetection) {
  {
    ClusterSim cluster(DisjointConfig());
    EXPECT_FALSE(cluster.partitions_overlap());
    ASSERT_EQ(cluster.partition_nodes(0).size(), 5u);
    ASSERT_EQ(cluster.partition_nodes(1).size(), 5u);
    EXPECT_EQ(cluster.partition_nodes(1).front(), 5u);
    EXPECT_EQ(cluster.FreeNodesIn("a"), 5);
    EXPECT_EQ(cluster.FreeNodesIn("b"), 5);
    EXPECT_EQ(cluster.FreeNodesIn("nope"), -1);
    // Per-node tags line up with the ranges.
    EXPECT_EQ(cluster.node(0).partitions(),
              std::vector<std::string>{"a"});
    EXPECT_EQ(cluster.node(9).partitions(),
              std::vector<std::string>{"b"});
  }
  {
    ClusterSim cluster(OverlapConfig());
    EXPECT_TRUE(cluster.partitions_overlap());
    EXPECT_EQ(cluster.partition_nodes(0).size(), 6u);
    EXPECT_EQ(cluster.partition_nodes(1).size(), 5u);
    const std::vector<std::string> both = {"a", "b"};
    EXPECT_EQ(cluster.node(4).partitions(), both);
    EXPECT_EQ(cluster.node(7).partitions(),
              std::vector<std::string>{"b"});
  }
  {
    // Out-of-range bounds are clamped; an empty range list means every node.
    ClusterConfig config;
    config.nodes = 4;
    PartitionConfig all;
    all.name = "all";
    PartitionConfig wild;
    wild.name = "wild";
    wild.is_default = false;
    wild.node_ranges = {{-3, 1}, {3, 99}};
    config.partitions = {all, wild};
    ClusterSim cluster(config);
    EXPECT_EQ(cluster.partition_nodes(0).size(), 4u);
    const std::vector<std::size_t> expect = {0, 1, 3};
    EXPECT_EQ(cluster.partition_nodes(1), expect);
  }
}

TEST_F(SchedPartition, BatchNamedNonDefaultPartitionIsNotRerouted) {
  // Regression for the routing special case `partition == "batch" -> ""`:
  // a cluster whose DEFAULT is "normal" and whose "batch" partition is a
  // separate queue with a tight time limit.
  ClusterConfig config;
  config.nodes = 2;
  PartitionConfig normal;
  normal.name = "normal";
  normal.is_default = true;
  PartitionConfig batch;
  batch.name = "batch";
  batch.is_default = false;
  batch.max_time_s = 600.0;
  config.partitions = {normal, batch};
  ClusterSim cluster(config);

  JobRequest request;
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(30.0, 0.9);
  request.time_limit_s = 3600.0;
  request.partition = "batch";
  const auto explicit_id = cluster.Submit(request);
  ASSERT_TRUE(explicit_id.ok());
  // Lands in "batch" (not rerouted to the default) and gets ITS clamp.
  EXPECT_EQ(cluster.GetJob(*explicit_id)->request.partition, "batch");
  EXPECT_EQ(cluster.GetJob(*explicit_id)->request.time_limit_s, 600.0);

  request.partition.clear();
  const auto default_id = cluster.Submit(request);
  ASSERT_TRUE(default_id.ok());
  EXPECT_EQ(cluster.GetJob(*default_id)->request.partition, "normal");
  EXPECT_EQ(cluster.GetJob(*default_id)->request.time_limit_s, 3600.0);

  request.partition = "debug";
  EXPECT_FALSE(cluster.Submit(request).ok());
}

TEST_F(SchedPartition, MinNodesValidatedAgainstPartitionSize) {
  ClusterConfig config = DisjointConfig();
  ClusterSim cluster(config);
  JobRequest request;
  request.num_tasks = 24;
  request.min_nodes = 6;  // cluster has 10 nodes, but "b" only owns 5
  request.workload = WorkloadSpec::Fixed(30.0, 0.9);
  request.partition = "b";
  const auto rejected = cluster.Submit(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("bad node count"), std::string::npos);
  request.min_nodes = 5;
  request.num_tasks = 20;
  EXPECT_TRUE(cluster.Submit(request).ok());
}

TEST_F(SchedPartition, HundredKBacklogDoesNotDelayDisjointPartition) {
  ClusterConfig config = DisjointConfig();
  ClusterSim cluster(config);

  // 100k long jobs flood partition "a"; its 5 nodes stay busy forever on
  // this test's horizon, leaving ~100k pending behind them.
  std::vector<JobRequest> backlog(100'000);
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    JobRequest& request = backlog[i];
    request.name = "flood-" + std::to_string(i);
    request.user_id = 1000 + static_cast<std::uint32_t>(i % 7);
    request.num_tasks = 4;
    request.workload = WorkloadSpec::Fixed(100'000.0, 0.9);
    request.time_limit_s = 200'000.0;
    request.partition = "a";
  }
  const auto results = cluster.SubmitBatch(std::move(backlog));
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  ASSERT_EQ(cluster.FreeNodesIn("a"), 0);
  ASSERT_GE(ReadSchedMetric(cluster, "pending_peak", "a"), 99'000u);

  // A lone job in disjoint "b" starts the moment it is submitted: shard
  // b's planning pass never sees a single job of the backlog.
  JobRequest probe;
  probe.name = "probe";
  probe.num_tasks = 4;
  probe.workload = WorkloadSpec::Fixed(60.0, 0.9);
  probe.time_limit_s = 600.0;
  probe.partition = "b";
  const SimTime submit_time = cluster.Now();
  const auto probe_id = cluster.Submit(probe);
  ASSERT_TRUE(probe_id.ok());
  const auto probe_job = cluster.GetJob(*probe_id);
  ASSERT_TRUE(probe_job.has_value());
  EXPECT_EQ(probe_job->state, JobState::kRunning);
  EXPECT_EQ(probe_job->start_time, submit_time);

  // Shard isolation in the stats: b's planner examined only its own job.
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total", "b"), 1u);
  EXPECT_LE(ReadSchedMetric(cluster, "plan_candidates_total", "b"), 2u);
  EXPECT_EQ(ReadSchedMetric(cluster, "pending_peak", "b"), 1u);
}

TEST_F(SchedPartition, DisjointParallelPlanningIsPoolSizeInvariant) {
  const auto jobs = MultiPartitionJobs(160, 20'240'817);
  const ClusterConfig base = DisjointConfig();
  std::vector<ScheduleRow> reference;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    ClusterConfig config = base;
    config.pool = &pool;
    const auto schedule = RunWorkload(config, jobs);
    if (reference.empty()) {
      reference = schedule;
      continue;
    }
    ExpectSameSchedule(reference, schedule,
                       "disjoint pool=" + std::to_string(threads));
  }
}

TEST_F(SchedPartition, OverlapSchedulingIsPoolSizeInvariant) {
  const auto jobs = MultiPartitionJobs(160, 77'011);
  const ClusterConfig base = OverlapConfig();
  std::vector<ScheduleRow> reference;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    ClusterConfig config = base;
    config.pool = &pool;
    const auto schedule = RunWorkload(config, jobs);
    if (reference.empty()) {
      reference = schedule;
      continue;
    }
    ExpectSameSchedule(reference, schedule,
                       "overlap pool=" + std::to_string(threads));
  }
}

TEST_F(SchedPartition, LegacyMatchesShardedOnDisjointPartitions) {
  for (const char* scenario :
       {"partition_disjoint_31337", "partition_disjoint_90210"}) {
    ExpectMatchesGolden(scenario);
  }
}

TEST_F(SchedPartition, LegacyMatchesShardedOnOverlappingPartitions) {
  for (const char* scenario :
       {"partition_overlap_4242", "partition_overlap_1701"}) {
    ExpectMatchesGolden(scenario);
  }
}

TEST_F(SchedPartition, PerPartitionStatsAccumulateAndReset) {
  ClusterSim cluster(DisjointConfig());
  JobRequest request;
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(30.0, 0.9);
  request.time_limit_s = 600.0;
  request.partition = "a";
  ASSERT_TRUE(cluster.Submit(request).ok());
  request.partition = "b";
  ASSERT_TRUE(cluster.Submit(request).ok());
  ASSERT_TRUE(cluster.Submit(request).ok());
  cluster.RunUntilIdle();

  EXPECT_EQ(ReadSchedMetric(cluster, "submit_calls_total", "a"), 1u);
  EXPECT_EQ(ReadSchedMetric(cluster, "submit_calls_total", "b"), 2u);
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total", "a"), 1u);
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total", "b"), 2u);
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total"), 3u);
  // No family is registered for a partition the cluster does not have.
  EXPECT_EQ(cluster.metrics().FindCounter(telemetry::LabeledName(
                "eco_sched_jobs_started_total", "partition", "missing")),
            nullptr);

  cluster.ResetSchedStats();
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total", "a"), 0u);
  EXPECT_EQ(ReadSchedMetric(cluster, "submit_calls_total", "b"), 0u);
  EXPECT_EQ(ReadSchedMetric(cluster, "dispatch_calls_total"), 0u);
}

}  // namespace
}  // namespace eco::slurm
