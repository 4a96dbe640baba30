// Unit tests for the Slurm substrate's policy objects and C-ABI bridge:
// job descriptors, plugin registry, sbatch codec, fair share, multifactor
// priority, and the reference backfill planner.
#include <gtest/gtest.h>

#include <cstring>

#include "ref_sched.hpp"
#include "slurm/job.hpp"
#include "slurm/job_desc.hpp"
#include "slurm/plugin_api.h"
#include "slurm/plugin_registry.hpp"
#include "slurm/sbatch.hpp"
#include "slurm/scheduler.hpp"

namespace eco::slurm {
namespace {

// --------------------------------------------------------------- JobDesc

JobRequest SampleRequest() {
  JobRequest request;
  request.name = "hpcg-run";
  request.user_id = 1234;
  request.num_tasks = 16;
  request.threads_per_core = 2;
  request.comment = "chronus";
  request.time_limit_s = 1800.0;
  request.script = "#!/bin/bash\nsrun ./xhpcg\n";
  return request;
}

TEST(JobDesc, RoundTripWithoutPluginEdits) {
  const JobRequest request = SampleRequest();
  JobDescWrapper wrapper(request, 7);
  EXPECT_EQ(wrapper.desc()->job_id, 7u);
  EXPECT_EQ(wrapper.desc()->num_tasks, 16u);
  EXPECT_EQ(wrapper.desc()->threads_per_core, 2);
  EXPECT_STREQ(wrapper.desc()->comment, "chronus");
  EXPECT_EQ(wrapper.desc()->cpu_freq_max, NO_VAL);  // unset -> sentinel

  const JobRequest back = wrapper.ToRequest(request);
  EXPECT_EQ(back.num_tasks, request.num_tasks);
  EXPECT_EQ(back.cpu_freq_max, 0u);
  EXPECT_EQ(back.comment, request.comment);
  EXPECT_EQ(back.script, request.script);
}

TEST(JobDesc, PluginEditsFoldBack) {
  const JobRequest request = SampleRequest();
  JobDescWrapper wrapper(request, 8);
  // A plugin rewrites the knobs the paper's Listing 4 touches.
  wrapper.desc()->num_tasks = 32;
  wrapper.desc()->threads_per_core = 1;
  wrapper.desc()->cpu_freq_min = 2'200'000;
  wrapper.desc()->cpu_freq_max = 2'200'000;
  const JobRequest back = wrapper.ToRequest(request);
  EXPECT_EQ(back.num_tasks, 32);
  EXPECT_EQ(back.threads_per_core, 1);
  EXPECT_EQ(back.cpu_freq_max, kHz(2'200'000));
}

TEST(JobDesc, LongStringsTruncatedSafely) {
  JobRequest request = SampleRequest();
  request.comment = std::string(1000, 'x');
  JobDescWrapper wrapper(request, 9);
  EXPECT_EQ(std::strlen(wrapper.desc()->comment), JOB_DESC_COMMENT_LEN - 1u);
}

// -------------------------------------------------------------- Registry

int g_init_calls = 0;
int g_fini_calls = 0;
int g_submit_calls = 0;

int TestInit() { ++g_init_calls; return SLURM_SUCCESS; }
void TestFini() { ++g_fini_calls; }
int TestSubmit(job_desc_msg_t* desc, uint32_t, char**) {
  ++g_submit_calls;
  desc->num_tasks = 5;
  return SLURM_SUCCESS;
}
int RejectSubmit(job_desc_msg_t*, uint32_t, char** err) {
  static char message[] = "quota exceeded";
  if (err != nullptr) *err = message;
  return SLURM_ERROR;
}

job_submit_plugin_ops_t MakeOps(const char* type,
                                int (*submit)(job_desc_msg_t*, uint32_t,
                                              char**)) {
  job_submit_plugin_ops_t ops{};
  ops.plugin_name = "test plugin";
  ops.plugin_type = type;
  ops.plugin_version = 1;
  ops.init = TestInit;
  ops.fini = TestFini;
  ops.job_submit = submit;
  ops.job_modify = nullptr;
  return ops;
}

TEST(PluginRegistry, LoadRunUnloadLifecycle) {
  g_init_calls = g_fini_calls = g_submit_calls = 0;
  const auto ops = MakeOps("job_submit/test", TestSubmit);
  {
    PluginRegistry registry;
    ASSERT_TRUE(registry.Load(&ops).ok());
    EXPECT_EQ(g_init_calls, 1);
    EXPECT_TRUE(registry.IsLoaded("job_submit/test"));

    JobDescWrapper wrapper(JobRequest{}, 1);
    ASSERT_TRUE(registry.RunJobSubmit(wrapper.desc(), 0).ok());
    EXPECT_EQ(g_submit_calls, 1);
    EXPECT_EQ(wrapper.desc()->num_tasks, 5u);

    EXPECT_TRUE(registry.Unload("job_submit/test"));
    EXPECT_EQ(g_fini_calls, 1);
    EXPECT_FALSE(registry.Unload("job_submit/test"));
  }
  EXPECT_EQ(g_fini_calls, 1);  // not double-finalised by the destructor
}

TEST(PluginRegistry, RejectsBadTypePrefixAndDuplicates) {
  PluginRegistry registry;
  auto bad = MakeOps("scheduler/eco", TestSubmit);
  EXPECT_FALSE(registry.Load(&bad).ok());
  auto good = MakeOps("job_submit/x", TestSubmit);
  EXPECT_TRUE(registry.Load(&good).ok());
  EXPECT_FALSE(registry.Load(&good).ok());  // duplicate
  EXPECT_FALSE(registry.Load(nullptr).ok());
}

TEST(PluginRegistry, PluginErrorAbortsSubmission) {
  PluginRegistry registry;
  const auto rejecting = MakeOps("job_submit/reject", RejectSubmit);
  ASSERT_TRUE(registry.Load(&rejecting).ok());
  JobDescWrapper wrapper(JobRequest{}, 1);
  const Status status = registry.RunJobSubmit(wrapper.desc(), 0);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("quota exceeded"), std::string::npos);
}

// ---------------------------------------------------------------- sbatch

TEST(Sbatch, GeneratedScriptMatchesListing6) {
  const std::string script =
      GenerateHpcgScript(32, kHz(2'200'000), 2, "../hpcg/build/bin/xhpcg");
  EXPECT_NE(script.find("#SBATCH --nodes=1\n"), std::string::npos);
  EXPECT_NE(script.find("#SBATCH --ntasks=32\n"), std::string::npos);
  EXPECT_NE(script.find("#SBATCH --cpu-freq=2200000\n"), std::string::npos);
  EXPECT_NE(script.find("srun --mpi=pmix_v4 --ntasks-per-core=2 "
                        "../hpcg/build/bin/xhpcg"),
            std::string::npos);
}

TEST(Sbatch, GenerateParseRoundTrip) {
  const std::string script = GenerateHpcgScript(24, kHz(1'500'000), 1, "./app");
  auto parsed = ParseSbatchScript(script, JobRequest{});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tasks, 24);
  EXPECT_EQ(parsed->min_nodes, 1);
  EXPECT_EQ(parsed->threads_per_core, 1);
  EXPECT_EQ(parsed->cpu_freq_max, kHz(1'500'000));
}

TEST(Sbatch, ParsesCommentDirective) {
  const std::string script =
      "#!/bin/bash\n#SBATCH --ntasks=4\n#SBATCH --comment=\"chronus\"\n"
      "srun ./app\n";
  auto parsed = ParseSbatchScript(script, JobRequest{});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->comment, "chronus");
}

TEST(Sbatch, MissingNtasksRejected) {
  JobRequest base;
  base.num_tasks = 0;
  EXPECT_FALSE(ParseSbatchScript("#!/bin/bash\necho hi\n", base).ok());
}

TEST(Sbatch, UnknownDirectivesIgnored) {
  const std::string script =
      "#!/bin/bash\n#SBATCH --ntasks=2\n#SBATCH --exotic-flag=1\nsrun ./a\n";
  EXPECT_TRUE(ParseSbatchScript(script, JobRequest{}).ok());
}

// ------------------------------------------------------------- FairShare

TEST(FairShare, NoUsageMeansFullFactor) {
  FairShareTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.Factor(1, 0.0), 1.0);
}

TEST(FairShare, HeavyUserPenalisedRelativeToLightUser) {
  FairShareTracker tracker;
  tracker.AddUsage(1, 100000.0, 0.0);
  tracker.AddUsage(2, 1000.0, 0.0);
  EXPECT_LT(tracker.Factor(1, 0.0), tracker.Factor(2, 0.0));
  EXPECT_GT(tracker.Factor(2, 0.0), 0.9);
}

TEST(FairShare, OldUsageForgivenRelativeToFreshUsage) {
  FairShareTracker tracker(/*half_life_seconds=*/3600.0);
  tracker.AddUsage(1, 100000.0, 0.0);
  tracker.AddUsage(2, 1000.0, 0.0);
  const double before = tracker.Factor(1, 0.0);
  // Ten half-lives later user 2 burns fresh cycles; user 1's ancient spree
  // has mostly decayed away and no longer dominates the comparison.
  tracker.AddUsage(2, 1000.0, 10.0 * 3600.0);
  const double after = tracker.Factor(1, 10.0 * 3600.0);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.8);
}

// ------------------------------------------------------------- Priority

TEST(Multifactor, OlderJobsGainPriority) {
  FairShareTracker fairshare;
  MultifactorPriority priority(MultifactorWeights{}, 32);
  JobRecord job;
  job.eligible_time = 0.0;
  job.request.num_tasks = 4;
  const double fresh = priority.Compute(job, 0.0, fairshare);
  const double aged = priority.Compute(job, 24 * 3600.0, fairshare);
  EXPECT_GT(aged, fresh);
}

TEST(Multifactor, BiggerJobsGainSizeFactor) {
  FairShareTracker fairshare;
  MultifactorPriority priority(MultifactorWeights{}, 32);
  JobRecord small, big;
  small.request.num_tasks = 1;
  big.request.num_tasks = 32;
  EXPECT_GT(priority.Compute(big, 0.0, fairshare),
            priority.Compute(small, 0.0, fairshare));
}

TEST(Multifactor, FairShareDominatesWhenWeighted) {
  FairShareTracker fairshare;
  fairshare.AddUsage(1, 1e6, 0.0);
  fairshare.AddUsage(2, 1.0, 0.0);
  MultifactorPriority priority(MultifactorWeights{}, 32);
  JobRecord hog, newcomer;
  hog.request.user_id = 1;
  newcomer.request.user_id = 2;
  hog.request.num_tasks = newcomer.request.num_tasks = 8;
  EXPECT_GT(priority.Compute(newcomer, 0.0, fairshare),
            priority.Compute(hog, 0.0, fairshare));
}

// ------------------------------------------------------------- Backfill
// Rules of the reference EASY planner (tests/ref_sched.hpp) that the
// product's indexed planner is checked against.

using ref::PlanInput;
using ref::PlanSchedule;
using ref::RunningInput;

PlanInput Pending(JobId id, int nodes, double limit_s, double priority,
                  std::uint64_t order) {
  return PlanInput{id, nodes, limit_s, priority, order};
}

TEST(PlanSchedule, FifoStartsInPriorityOrderUntilBlocked) {
  const auto result =
      PlanSchedule(SchedulerPolicy::kFifo,
                   {Pending(1, 1, 60, 10, 0), Pending(2, 1, 60, 20, 1),
                    Pending(3, 4, 60, 5, 2)},
                   {}, /*free=*/2, /*total=*/4, 0.0);
  // Priority order: 2, 1 start; 3 needs 4 nodes -> blocked, FIFO stops.
  EXPECT_EQ(result, (std::vector<JobId>{2, 1}));
}

TEST(PlanSchedule, FifoHeadOfLineBlocksEverything) {
  const auto result = PlanSchedule(
      SchedulerPolicy::kFifo,
      {Pending(1, 4, 60, 99, 0), Pending(2, 1, 60, 1, 1)},
      {RunningInput{2, 100.0}}, /*free=*/2, /*total=*/4, 0.0);
  EXPECT_TRUE(result.empty());
}

TEST(PlanSchedule, BackfillLetsShortJobsJumpTheBlockedHead) {
  // Head needs 4 nodes; 2 free now, 2 more free at t=100. A 50-second job
  // fits before the shadow time; a 500-second one does not.
  const auto result = PlanSchedule(
      SchedulerPolicy::kBackfill,
      {Pending(1, 4, 600, 99, 0), Pending(2, 1, 50.0 / 60.0 * 60.0, 1, 1),
       Pending(3, 1, 500 * 60.0, 1, 2)},
      {RunningInput{2, 100.0}}, /*free=*/2, /*total=*/4, 0.0);
  EXPECT_EQ(result, (std::vector<JobId>{2}));
}

TEST(PlanSchedule, BackfillRespectsShadowNodeCount) {
  // Head needs 3 of 4 nodes at shadow time; one node stays spare, so a
  // long 1-node job may run beside the head, but only one of them.
  const auto result = PlanSchedule(
      SchedulerPolicy::kBackfill,
      {Pending(1, 3, 600 * 60, 99, 0), Pending(2, 1, 600 * 60, 2, 1),
       Pending(3, 1, 600 * 60, 1, 2)},
      {RunningInput{4, 50.0}}, /*free=*/0, /*total=*/4, 0.0);
  EXPECT_EQ(result.size(), 0u);  // nothing free right now at all
}

TEST(PlanSchedule, BackfillFillsSpareNodesBesideReservation) {
  // 4 nodes, 2 free. Head wants 3 -> shadow at t=100 when the running
  // 2-node job ends (4 total free, 1 spare beside the head). Job 2 is long
  // but 1-node: it fits in the spare-at-shadow allowance.
  const auto result = PlanSchedule(
      SchedulerPolicy::kBackfill,
      {Pending(1, 3, 600 * 60, 99, 0), Pending(2, 1, 600 * 60, 1, 1)},
      {RunningInput{2, 100.0}}, /*free=*/2, /*total=*/4, 0.0);
  EXPECT_EQ(result, (std::vector<JobId>{2}));
}

TEST(PlanSchedule, EmptyQueueNoWork) {
  EXPECT_TRUE(
      PlanSchedule(SchedulerPolicy::kBackfill, {}, {}, 4, 4, 0.0).empty());
}

TEST(PlanSchedule, PriorityTiesBreakBySubmitOrder) {
  const auto result =
      PlanSchedule(SchedulerPolicy::kFifo,
                   {Pending(2, 1, 60, 5, 1), Pending(1, 1, 60, 5, 0)}, {},
                   /*free=*/2, /*total=*/2, 0.0);
  EXPECT_EQ(result, (std::vector<JobId>{1, 2}));
}

}  // namespace
}  // namespace eco::slurm
