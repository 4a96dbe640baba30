// RAPL counter, the acct_gather_energy plugin family, the EnergyGatherHost,
// the node energy tap, and the workload generator.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/telemetry/metrics.hpp"
#include "common/thread_pool.hpp"
#include "hw/rapl.hpp"
#include "plugin/acct_gather_energy.hpp"
#include "slurm/energy_gather.hpp"
#include "slurm/node_sim.hpp"
#include "slurm/workload_gen.hpp"

namespace eco {
namespace {

// ------------------------------------------------------------------ RAPL

TEST(Rapl, AccumulatesTrueJoules) {
  hw::RaplCounter counter;
  counter.Accumulate(100.0, 10.0);  // 1 kJ
  EXPECT_DOUBLE_EQ(counter.TrueJoules(), 1000.0);
  // MSR units: 1 kJ / (2^-14 J/unit) = 16,384,000 units.
  EXPECT_EQ(counter.ReadMsr(), 16'384'000u);
}

TEST(Rapl, SubUnitEnergyAccumulatesWithoutLoss) {
  hw::RaplCounter counter;
  // 1000 tiny accruals summing to exactly 1 J = 16384 units.
  for (int i = 0; i < 1000; ++i) counter.Accumulate(0.001, 1.0);
  EXPECT_NEAR(counter.TrueJoules(), 1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(counter.ReadMsr()), 16384.0, 1.0);
}

TEST(Rapl, MsrWrapsAt32Bits) {
  hw::RaplCounter counter;
  // 2^32 units ≈ 262,144 J at the default unit; push past the wrap.
  const double joules_to_wrap = 4294967296.0 / 16384.0;
  counter.Accumulate(joules_to_wrap + 100.0, 1.0);
  EXPECT_LT(counter.ReadMsr(), 16384u * 200u);  // wrapped to a small value
  EXPECT_GT(counter.TrueJoules(), joules_to_wrap);
}

TEST(Rapl, DeltaJoulesUnwrapsOneWrap) {
  hw::RaplCounter counter;
  const std::uint32_t prev = 0xffffff00u;
  const std::uint32_t curr = 0x00000100u;
  // 0x200 units elapsed across the wrap.
  EXPECT_NEAR(counter.DeltaJoules(prev, curr), 0x200 / 16384.0, 1e-12);
  EXPECT_NEAR(counter.DeltaJoules(100, 16484), 1.0, 1e-9);
}

// ------------------------------------------------- plugins + host

class FixedSource : public ipmi::PowerSource {
 public:
  explicit FixedSource(double sys) : sys_(sys) {}
  double SystemWatts() const override { return sys_; }
  double CpuWatts() const override { return sys_ * 0.6; }
  double CpuTempCelsius() const override { return 55.0; }
  double sys_;
};

TEST(EnergyGatherHost, RejectsBadTables) {
  slurm::EnergyGatherHost host;
  EXPECT_FALSE(host.Load(nullptr).ok());
  EXPECT_FALSE(host.loaded());
  EXPECT_FALSE(host.Read().ok());
  EXPECT_EQ(host.type(), "acct_gather_energy/none");
}

TEST(EnergyGatherHost, IpmiPluginIntegratesPowerOverPolls) {
  FixedSource source(200.0);
  ipmi::BmcParams quiet;
  quiet.noise_stddev_watts = 0.0;
  ipmi::BmcSimulator bmc(&source, quiet, Rng(1));
  EventQueue clock;

  plugin::SetIpmiEnergySource(&bmc, &clock);
  slurm::EnergyGatherHost host;
  ASSERT_TRUE(host.Load(plugin::IpmiEnergyOps()).ok());
  EXPECT_EQ(host.type(), "acct_gather_energy/ipmi");

  // Poll every 10 simulated seconds for a minute at constant 200 W.
  ASSERT_TRUE(host.PollDelta().ok());  // baseline
  double total = 0.0;
  for (int i = 0; i < 6; ++i) {
    clock.ScheduleAfter(10.0, [](SimTime) {});
    clock.RunAll();
    auto delta = host.PollDelta();
    ASSERT_TRUE(delta.ok());
    total += *delta;
  }
  EXPECT_NEAR(total, 200.0 * 60.0, 5.0);
  auto reading = host.Read();
  ASSERT_TRUE(reading.ok());
  EXPECT_EQ(reading->current_watts, 200u);
  host.Unload();
  plugin::SetIpmiEnergySource(nullptr, nullptr);
}

TEST(EnergyGatherHost, PublishesPerNodeTelemetry) {
  FixedSource source(200.0);
  ipmi::BmcParams quiet;
  quiet.noise_stddev_watts = 0.0;
  ipmi::BmcSimulator bmc(&source, quiet, Rng(1));
  EventQueue clock;
  plugin::SetIpmiEnergySource(&bmc, &clock);

  telemetry::MetricsRegistry registry;
  slurm::EnergyGatherHost host;
  host.SetTelemetry(&registry, "node000");
  ASSERT_TRUE(host.Load(plugin::IpmiEnergyOps()).ok());

  ASSERT_TRUE(host.PollDelta().ok());  // baseline poll
  for (int i = 0; i < 3; ++i) {
    clock.ScheduleAfter(10.0, [](SimTime) {});
    clock.RunAll();
    ASSERT_TRUE(host.PollDelta().ok());
  }

  const auto* polls =
      registry.FindCounter("eco_energy_polls_total{node=\"node000\"}");
  const auto* joules =
      registry.FindCounter("eco_energy_joules_total{node=\"node000\"}");
  const auto* watts =
      registry.FindGauge("eco_energy_watts{node=\"node000\"}");
  ASSERT_NE(polls, nullptr);
  ASSERT_NE(joules, nullptr);
  ASSERT_NE(watts, nullptr);
  EXPECT_EQ(polls->Value(), 4u);  // baseline + 3 deltas
  EXPECT_NEAR(static_cast<double>(joules->Value()), 200.0 * 30.0, 5.0);
  EXPECT_DOUBLE_EQ(watts->Value(), 200.0);

  // Detaching stops publication but keeps the host working.
  host.SetTelemetry(nullptr, "");
  clock.ScheduleAfter(10.0, [](SimTime) {});
  clock.RunAll();
  ASSERT_TRUE(host.PollDelta().ok());
  EXPECT_EQ(polls->Value(), 4u);

  host.Unload();
  plugin::SetIpmiEnergySource(nullptr, nullptr);
}

// A Prometheus scrape (GET /metrics on subd) reads the host's telemetry handles
// while slurmd's poll loop is updating them. The plugin and sim clock stay
// strictly on the polling thread — only the Counter/Gauge handles are
// shared — and the totals must come out exact. Runs under ThreadSanitizer
// via the suite's tsan label.
TEST(EnergyGatherHost, TelemetryReadsRaceWithSerialPolls) {
  FixedSource source(250.0);
  ipmi::BmcParams quiet;
  quiet.noise_stddev_watts = 0.0;
  ipmi::BmcSimulator bmc(&source, quiet, Rng(1));
  EventQueue clock;
  plugin::SetIpmiEnergySource(&bmc, &clock);

  telemetry::MetricsRegistry registry;
  slurm::EnergyGatherHost host;
  host.SetTelemetry(&registry, "n0");
  ASSERT_TRUE(host.Load(plugin::IpmiEnergyOps()).ok());
  ASSERT_TRUE(host.PollDelta().ok());  // baseline

  const auto* polls =
      registry.FindCounter("eco_energy_polls_total{node=\"n0\"}");
  const auto* joules =
      registry.FindCounter("eco_energy_joules_total{node=\"n0\"}");
  const auto* watts = registry.FindGauge("eco_energy_watts{node=\"n0\"}");
  ASSERT_NE(polls, nullptr);
  ASSERT_NE(joules, nullptr);
  ASSERT_NE(watts, nullptr);

  ThreadPool pool(4);
  std::atomic<std::uint64_t> sink{0};
  pool.ParallelFor(0, 8, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t chunk = begin; chunk < end; ++chunk) {
      if (chunk == 0) {
        // The poll loop: advance sim time 1 s, poll, 200 times over.
        for (int i = 0; i < 200; ++i) {
          clock.ScheduleAfter(1.0, [](SimTime) {});
          clock.RunAll();
          ASSERT_TRUE(host.PollDelta().ok());
        }
      } else {
        double local = 0.0;
        for (int i = 0; i < 20'000; ++i) {
          local += static_cast<double>(polls->Value());
          local += static_cast<double>(joules->Value());
          local += watts->Value();
        }
        sink.fetch_add(static_cast<std::uint64_t>(local));
      }
    }
  });
  EXPECT_EQ(polls->Value(), 201u);  // baseline + 200 polls
  EXPECT_NEAR(static_cast<double>(joules->Value()), 250.0 * 200.0, 10.0);
  EXPECT_DOUBLE_EQ(watts->Value(), 250.0);
  EXPECT_GE(sink.load(), 0u);

  host.Unload();
  plugin::SetIpmiEnergySource(nullptr, nullptr);
}

TEST(EnergyGatherHost, OnlyOnePluginAtATime) {
  FixedSource source(100.0);
  ipmi::BmcSimulator bmc(&source, ipmi::BmcParams{}, Rng(1));
  EventQueue clock;
  plugin::SetIpmiEnergySource(&bmc, &clock);
  hw::RaplCounter counter;
  plugin::SetRaplEnergySource(&counter, &clock);

  slurm::EnergyGatherHost host;
  ASSERT_TRUE(host.Load(plugin::IpmiEnergyOps()).ok());
  EXPECT_FALSE(host.Load(plugin::RaplEnergyOps()).ok());
  host.Unload();
  ASSERT_TRUE(host.Load(plugin::RaplEnergyOps()).ok());
  host.Unload();
  plugin::SetIpmiEnergySource(nullptr, nullptr);
  plugin::SetRaplEnergySource(nullptr, nullptr);
}

TEST(EnergyGatherHost, RaplPluginTracksNodeCpuEnergy) {
  // Wire a RAPL counter to a live node via the energy tap and compare the
  // plugin's accounting against the node's ground truth.
  EventQueue queue;
  slurm::NodeSim node("n0", slurm::NodeParams{}, &queue);
  hw::RaplCounter counter;
  node.AddEnergyTap([&](double /*sys*/, double cpu_watts, double dt) {
    counter.Accumulate(cpu_watts, dt);
  });
  plugin::SetRaplEnergySource(&counter, &queue);
  slurm::EnergyGatherHost host;
  ASSERT_TRUE(host.Load(plugin::RaplEnergyOps()).ok());
  ASSERT_TRUE(host.PollDelta().ok());  // baseline

  slurm::JobRecord job;
  job.id = 1;
  job.request.num_tasks = 32;
  job.request.cpu_freq_min = job.request.cpu_freq_max = kHz(2'200'000);
  job.request.workload = slurm::WorkloadSpec::Fixed(120.0, 0.9);
  slurm::RunStats stats;
  ASSERT_TRUE(node.StartJob(job, 32, [&](slurm::JobId, const slurm::RunStats& s) {
                    stats = s;
                  }).ok());
  queue.RunAll();

  auto delta = host.PollDelta();
  ASSERT_TRUE(delta.ok());
  EXPECT_NEAR(*delta, stats.cpu_joules, stats.cpu_joules * 0.01 + 2.0);
  host.Unload();
  plugin::SetRaplEnergySource(nullptr, nullptr);
}

// --------------------------------------------------- workload generator

TEST(WorkloadGen, DeterministicForSeed) {
  slurm::WorkloadMix mix;
  const auto a = slurm::GenerateWorkload(mix, 20, 32, 100);
  const auto b = slurm::GenerateWorkload(mix, 20, 32, 100);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].request.name, b[i].request.name);
    EXPECT_EQ(a[i].request.num_tasks, b[i].request.num_tasks);
  }
}

TEST(WorkloadGen, ArrivalsIncreaseAndMixRoughlyHonoured) {
  slurm::WorkloadMix mix;
  mix.hpcg_share = 0.5;
  mix.wide_share = 0.25;
  const auto jobs = slurm::GenerateWorkload(mix, 400, 32, 100);
  ASSERT_EQ(jobs.size(), 400u);
  int hpcg = 0, wide = 0;
  double prev = -1.0;
  for (const auto& job : jobs) {
    EXPECT_GT(job.arrival, prev);
    prev = job.arrival;
    if (job.request.comment == "chronus") ++hpcg;
    if (job.request.min_nodes > 1) ++wide;
  }
  EXPECT_NEAR(hpcg / 400.0, 0.5, 0.08);
  EXPECT_NEAR(wide / 400.0, 0.25, 0.08);
  // Mean inter-arrival close to configured.
  EXPECT_NEAR(jobs.back().arrival / 400.0, mix.mean_interarrival_s,
              mix.mean_interarrival_s * 0.2);
}

TEST(WorkloadGen, RequestsAreRunnable) {
  const auto jobs = slurm::GenerateWorkload(slurm::WorkloadMix{}, 50, 32, 100);
  for (const auto& job : jobs) {
    EXPECT_GE(job.request.num_tasks, 1);
    EXPECT_LE(job.request.num_tasks / std::max(1, job.request.min_nodes), 32);
    EXPECT_GT(job.request.time_limit_s, 0.0);
  }
}

}  // namespace
}  // namespace eco
