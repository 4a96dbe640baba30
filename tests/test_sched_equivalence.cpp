// Schedule-equivalence suite: the scheduler must emit the SAME schedule as
// the retired legacy sort-everything engine — identical start order,
// start/end times and node placement — on randomized small workloads, across
// FIFO/backfill, multifactor on/off, dependencies, cancels, timeouts, green
// holds, power caps and the eco plugin. The legacy schedules are goldens
// (tests/golden/sched/, see sched_scenarios.hpp), captured while this suite
// still ran both engines side by side and proved them identical.
//
// Power-cap doom timing is pinned too: a job the cap fails on an idle
// cluster dooms its dependent in the same pass (PowerCapDoomTimingMatches).
//
// The ingress-vs-serial half runs the product twice: requests pushed
// through SubmitIngress by racing producers must reproduce the schedule of
// a serial Submit loop.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "plugin/job_submit_eco.hpp"
#include "sched_golden.hpp"
#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"

namespace eco::slurm {
namespace {

using scenarios::BaseConfig;
using scenarios::ExpectMatchesGolden;
using scenarios::GoldenRun;
using scenarios::RunGoldenScenario;

void ExpectIdenticalSchedules(ClusterSim& expected,
                              const std::vector<JobId>& expected_ids,
                              ClusterSim& actual,
                              const std::vector<JobId>& actual_ids,
                              const std::string& label) {
  ASSERT_EQ(expected_ids.size(), actual_ids.size()) << label;
  for (std::size_t i = 0; i < expected_ids.size(); ++i) {
    const auto a = expected.GetJob(expected_ids[i]);
    const auto b = actual.GetJob(actual_ids[i]);
    ASSERT_TRUE(a.has_value() && b.has_value()) << label << " job " << i;
    EXPECT_EQ(a->state, b->state) << label << " job " << i + 1;
    EXPECT_EQ(a->start_time, b->start_time) << label << " job " << i + 1;
    EXPECT_EQ(a->end_time, b->end_time) << label << " job " << i + 1;
    EXPECT_EQ(a->node, b->node) << label << " job " << i + 1;
    EXPECT_EQ(a->allocated_nodes, b->allocated_nodes)
        << label << " job " << i + 1;
  }
}

class SchedEquivalence : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override {
    plugin::SetChronusGateway(nullptr);
    Logger::Instance().SetLevel(LogLevel::kInfo);
  }
};

TEST_F(SchedEquivalence, BackfillMultifactorRandomWorkloads) {
  for (const char* scenario :
       {"backfill_mf_101", "backfill_mf_202", "backfill_mf_303"}) {
    ExpectMatchesGolden(scenario);
  }
}

TEST_F(SchedEquivalence, FifoMultifactorRandomWorkloads) {
  for (const char* scenario : {"fifo_mf_404", "fifo_mf_505"}) {
    ExpectMatchesGolden(scenario);
  }
}

TEST_F(SchedEquivalence, BackfillSubmitOrderPriority) {
  for (const char* scenario : {"backfill_prio0_606", "backfill_prio0_707"}) {
    ExpectMatchesGolden(scenario);
  }
}

TEST_F(SchedEquivalence, AgeSaturationCrossoverMatches) {
  // Tiny max_age forces jobs to saturate mid-run, exercising the
  // growing->saturated migration against the legacy recompute.
  ExpectMatchesGolden("age_saturation_808");
}

TEST_F(SchedEquivalence, GreenHoldReleaseMatches) {
  ExpectMatchesGolden("green_hold_909");
}

TEST_F(SchedEquivalence, PowerCapSchedulesMatch) {
  // Narrow jobs get deferred by the cap under load, and 3-node jobs exceed
  // it outright on an idle cluster (the failure path whose doom timing used
  // to diverge between the engines).
  for (const char* scenario : {"power_cap_1212", "power_cap_1313"}) {
    ExpectMatchesGolden(scenario);
  }
}

TEST_F(SchedEquivalence, PowerCapDoomTimingMatches) {
  // An idle cluster fails a job that alone exceeds the cap. Its dependent
  // must be doomed at the SAME sim time, in the same pass — not at some
  // later scheduling pass. The golden pins both records.
  ExpectMatchesGolden("power_cap_doom");
  const GoldenRun run = RunGoldenScenario("power_cap_doom");
  ASSERT_EQ(run.lines.size(), 2u);
  EXPECT_NE(run.lines[0].find(" FAILED "), std::string::npos) << run.lines[0];
  EXPECT_NE(run.lines[1].find(" FAILED "), std::string::npos) << run.lines[1];
  // Field 3 is the end time: the dependent dies when the over-cap job does.
  const auto end_of = [](const std::string& line) {
    std::istringstream in(line);
    std::string field;
    for (int i = 0; i < 4; ++i) in >> field;
    return field;
  };
  EXPECT_EQ(end_of(run.lines[1]), end_of(run.lines[0]));
}

TEST_F(SchedEquivalence, EcoPluginRewritesMatch) {
  // Half the jobs opt into the eco plugin rewrite; the golden also pins
  // each job's task count and frequency (same model, same decision).
  ExpectMatchesGolden("eco_plugin_1111");
}

// ------------------------------------------------- ingress-vs-serial suite
// The front-door guarantee: requests pushed through SubmitIngress by ANY
// number of racing producer threads must yield the exact schedule of a
// serial per-call Submit loop. Each wave arrives at one sim timestamp, which
// defer_dispatch coalesces into a single scheduling pass either way.

std::vector<std::vector<JobRequest>> MakeWaves(std::uint64_t seed, int waves,
                                               int per_wave) {
  Rng rng(seed);
  std::vector<std::vector<JobRequest>> out(waves);
  int i = 0;
  for (auto& wave : out) {
    for (int j = 0; j < per_wave; ++j) {
      JobRequest request;
      request.name = "wave-" + std::to_string(i++);
      request.user_id = 1000 + static_cast<std::uint32_t>(rng.NextBounded(16));
      request.min_nodes = rng.UniformInt(1, 3);
      request.num_tasks = 4 * request.min_nodes;
      const double duration = rng.Uniform(20.0, 300.0);
      request.workload = WorkloadSpec::Fixed(duration, rng.Uniform(0.5, 0.95));
      request.time_limit_s = duration * rng.Uniform(1.2, 4.0);
      wave.push_back(std::move(request));
    }
  }
  return out;
}

void RunIngressEquivalence(ClusterConfig config, int producers, int waves,
                           int per_wave, const std::string& label) {
  config.defer_dispatch = true;
  const auto stream = MakeWaves(2024, waves, per_wave);
  constexpr SimTime kWaveGap = 400.0;

  // Serial reference: one Submit call per request, in stream order.
  ClusterSim serial(config);
  std::vector<JobId> serial_ids;
  for (std::size_t w = 0; w < stream.size(); ++w) {
    serial.RunUntil(static_cast<SimTime>(w) * kWaveGap);
    for (const JobRequest& request : stream[w]) {
      const auto id = serial.Submit(request);
      ASSERT_TRUE(id.ok()) << label;
      serial_ids.push_back(*id);
    }
  }
  serial.RunUntilIdle();

  // Ingressed: `producers` threads race each wave into the front door with
  // caller seqs (the global stream index), then one drain per wave.
  ClusterSim ingressed(config);
  IngressConfig ingress_config;
  ingress_config.stripes = 4;  // fewer stripes than producers: contention
  ingress_config.metrics = &ingressed.metrics();
  SubmitIngress ingress(std::move(ingress_config));
  std::vector<JobId> ingress_ids;
  std::uint64_t base_seq = 0;
  for (std::size_t w = 0; w < stream.size(); ++w) {
    ingressed.RunUntil(static_cast<SimTime>(w) * kWaveGap);
    const std::vector<JobRequest>& wave = stream[w];
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&ingress, &wave, base_seq, p, producers] {
        for (std::size_t i = p; i < wave.size();
             i += static_cast<std::size_t>(producers)) {
          ASSERT_TRUE(ingress.Submit(wave[i], 0.0, base_seq + i).ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    base_seq += wave.size();
    for (const auto& result : ingress.DrainInto(ingressed)) {
      ASSERT_TRUE(result.ok()) << label;
      ingress_ids.push_back(*result);
    }
  }
  ingressed.RunUntilIdle();

  ExpectIdenticalSchedules(serial, serial_ids, ingressed, ingress_ids, label);
}

TEST_F(SchedEquivalence, IngressBurstMatchesSerialAtAnyProducerCount) {
  for (const int producers : {1, 4, 8}) {
    RunIngressEquivalence(BaseConfig(SchedulerPolicy::kBackfill, true),
                          producers, /*waves=*/1, /*per_wave=*/120,
                          "ingress burst x" + std::to_string(producers));
  }
}

TEST_F(SchedEquivalence, IngressWavesMatchSerialAtAnyProducerCount) {
  for (const int producers : {1, 4, 8}) {
    RunIngressEquivalence(BaseConfig(SchedulerPolicy::kBackfill, true),
                          producers, /*waves=*/3, /*per_wave=*/40,
                          "ingress waves x" + std::to_string(producers));
  }
}

TEST_F(SchedEquivalence, IngressMatchesSerialWithCustomFairshareHalfLife) {
  // A short half-life makes the fair-share factor move during the run; the
  // ingress path must still reproduce the serial schedule exactly.
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  config.fairshare_half_life_s = 1800.0;
  RunIngressEquivalence(config, /*producers=*/4, /*waves=*/3, /*per_wave=*/40,
                        "ingress custom half-life");
}

}  // namespace
}  // namespace eco::slurm
