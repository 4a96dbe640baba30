// Energy attribution ledger suite (DESIGN.md "Observability plane").
//
// Covers:
//   - proration unit semantics: share splits, un-sold fraction staying
//     idle, oversubscription normalising, no-occupant samples;
//   - FinalizeJob rolling aggregates (user/account/partition + EDP) once;
//   - the conservation invariant on a 1k-job multi-partition workload:
//     attributed + idle joules == what an EnergyGatherHost wired to the
//     same node taps (RAPL flavour) reports, within 1e-6 relative;
//   - ToJson() byte-identical across ThreadPool sizes 1/4/8 and to the
//     golden books of the retired legacy scheduler engine (tsan-labelled —
//     the scheduler plans partitions on pool workers);
//   - attributed joules flowing into JobRecord / AccountingDb totals /
//     the sacct CSV ledger_kj column, and the sdiag ledger + time-series
//     sections.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/timeseries.hpp"
#include "common/thread_pool.hpp"
#include "hw/rapl.hpp"
#include "plugin/acct_gather_energy.hpp"
#include "sched_golden.hpp"
#include "slurm/cluster.hpp"
#include "slurm/commands.hpp"
#include "slurm/energy_gather.hpp"
#include "slurm/energy_ledger.hpp"

namespace eco {
namespace {

using slurm::ClusterConfig;
using slurm::ClusterSim;
using slurm::EnergyLedger;
using slurm::JobRecord;
using slurm::JobRequest;
using slurm::JobState;
using slurm::PartitionConfig;
using slurm::WorkloadSpec;

class EnergyLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override { Logger::Instance().SetLevel(LogLevel::kInfo); }
};

JobRecord MakeJob(slurm::JobId id, std::uint32_t user,
                  const std::string& account, const std::string& partition) {
  JobRecord job;
  job.id = id;
  job.request.user_id = user;
  job.request.account = account;
  job.request.partition = partition;
  return job;
}

// ------------------------------------------------------------- proration

TEST(EnergyLedgerUnit, EqualSharesSplitANodeEvenly) {
  EnergyLedger ledger;
  ledger.SetNodeCount(1);
  const JobRecord a = MakeJob(1, 10, "acct-a", "batch");
  const JobRecord b = MakeJob(2, 11, "acct-b", "batch");
  ledger.BeginSpan(0, a, 0.5);
  ledger.BeginSpan(0, b, 0.5);
  ledger.OnEnergySample(0, 100.0);
  EXPECT_DOUBLE_EQ(ledger.JobJoules(1), 50.0);
  EXPECT_DOUBLE_EQ(ledger.JobJoules(2), 50.0);
  EXPECT_DOUBLE_EQ(ledger.IdleJoules(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.AttributedJoules(), 100.0);
}

TEST(EnergyLedgerUnit, UnsoldShareStaysIdleEnergy) {
  EnergyLedger ledger;
  ledger.SetNodeCount(1);
  ledger.BeginSpan(0, MakeJob(1, 10, "", "batch"), 0.25);
  ledger.OnEnergySample(0, 100.0);
  EXPECT_DOUBLE_EQ(ledger.JobJoules(1), 25.0);
  EXPECT_DOUBLE_EQ(ledger.IdleJoules(), 75.0);
  EXPECT_DOUBLE_EQ(ledger.TotalJoules(), 100.0);
}

TEST(EnergyLedgerUnit, OversubscribedSharesNormaliseToTheNodeDraw) {
  EnergyLedger ledger;
  ledger.SetNodeCount(1);
  ledger.BeginSpan(0, MakeJob(1, 10, "", "batch"), 1.0);
  ledger.BeginSpan(0, MakeJob(2, 11, "", "batch"), 1.0);
  ledger.OnEnergySample(0, 100.0);
  // A node never bills more joules than it drew.
  EXPECT_DOUBLE_EQ(ledger.JobJoules(1), 50.0);
  EXPECT_DOUBLE_EQ(ledger.JobJoules(2), 50.0);
  EXPECT_DOUBLE_EQ(ledger.AttributedJoules(), 100.0);
  EXPECT_DOUBLE_EQ(ledger.IdleJoules(), 0.0);
}

TEST(EnergyLedgerUnit, SamplesWithNoOccupantAreIdle) {
  EnergyLedger ledger;
  ledger.SetNodeCount(2);
  ledger.OnEnergySample(0, 40.0);
  ledger.OnEnergySample(1, 60.0);
  EXPECT_DOUBLE_EQ(ledger.AttributedJoules(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.IdleJoules(), 100.0);
  EXPECT_EQ(ledger.samples(), 2u);
  // Whole-node span (default share 1.0): every joule goes to the job.
  ledger.BeginSpan(1, MakeJob(7, 3, "", "batch"));
  ledger.OnEnergySample(1, 50.0);
  ledger.EndSpans(7);
  ledger.OnEnergySample(1, 10.0);
  EXPECT_DOUBLE_EQ(ledger.JobJoules(7), 50.0);
  EXPECT_DOUBLE_EQ(ledger.IdleJoules(), 110.0);
}

TEST(EnergyLedgerUnit, FinalizeRollsAggregatesOnceAndAccumulatesEdp) {
  EnergyLedger ledger;
  ledger.SetNodeCount(1);
  JobRecord job = MakeJob(1, 10, "climate", "batch");
  ledger.BeginSpan(0, job);
  ledger.OnEnergySample(0, 200.0);
  ledger.EndSpans(job.id);
  job.start_time = 100.0;
  job.end_time = 150.0;
  ledger.FinalizeJob(job);
  ledger.FinalizeJob(job);  // idempotent
  EXPECT_EQ(ledger.finalized_jobs(), 1u);
  ASSERT_EQ(ledger.by_user().count(10), 1u);
  EXPECT_DOUBLE_EQ(ledger.by_user().at(10).joules, 200.0);
  EXPECT_EQ(ledger.by_user().at(10).jobs, 1u);
  EXPECT_DOUBLE_EQ(ledger.by_account().at("climate").joules, 200.0);
  const auto& partition = ledger.by_partition().at("batch");
  EXPECT_DOUBLE_EQ(partition.joules, 200.0);
  EXPECT_DOUBLE_EQ(partition.edp_joule_seconds, 200.0 * 50.0);

  // A second finalized job in the same partition accumulates EDP.
  JobRecord other = MakeJob(2, 10, "climate", "batch");
  ledger.BeginSpan(0, other);
  ledger.OnEnergySample(0, 100.0);
  ledger.EndSpans(other.id);
  other.start_time = 0.0;
  other.end_time = 10.0;
  ledger.FinalizeJob(other);
  EXPECT_DOUBLE_EQ(ledger.by_partition().at("batch").edp_joule_seconds,
                   200.0 * 50.0 + 100.0 * 10.0);
  EXPECT_EQ(ledger.by_user().at(10).jobs, 2u);
}

// ------------------------------------------------- cluster-level harness

struct LedgerRun {
  std::string dump;          // ToJson().Dump() — the bitwise witness
  double attributed = 0.0;
  double idle = 0.0;
  double job_sum = 0.0;      // sum of per-job entries
  double host_joules = 0.0;  // EnergyGatherHost's telescoped PollDelta sum
  std::uint64_t finalized = 0;
  std::uint64_t completed = 0;
};

// Runs the harness workload with a ledger attached; when `with_host` a
// RAPL counter accumulates every tap's system joules and an
// EnergyGatherHost polls it every 5 sim-seconds (idle energy flushed
// first, so no single MSR delta can exceed the 32-bit wrap).
LedgerRun RunLedgerWorkload(int threads, bool with_host) {
  ThreadPool pool(threads);
  EnergyLedger ledger;
  // The four-disjoint-partition workload the trace determinism test uses:
  // 16 nodes, 4 partitions of 4 nodes, 1000 generated jobs across 8 users.
  ClusterConfig config = slurm::scenarios::LedgerHarnessConfig(&pool);
  config.energy_ledger = &ledger;
  ClusterSim cluster(config);

  hw::RaplCounter counter;
  slurm::EnergyGatherHost host;
  LedgerRun run;
  if (with_host) {
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      cluster.node(i).AddEnergyTap(
          [&counter](double system_watts, double /*cpu*/, double dt) {
            counter.Accumulate(system_watts, dt);
          });
    }
    plugin::SetRaplEnergySource(&counter, &cluster.queue());
    EXPECT_TRUE(host.Load(plugin::RaplEnergyOps()).ok());
    EXPECT_TRUE(host.PollDelta().ok());  // baseline at t=0, counter empty
    // A 5 s poll; as an observer it stops with the workload, so
    // RunUntilIdle() still returns.
    cluster.queue().ScheduleEvery(
        5.0, 5.0,
        [&](SimTime) {
          cluster.FlushIdleEnergy();
          auto delta = host.PollDelta();
          ASSERT_TRUE(delta.ok());
          run.host_joules += *delta;
        },
        EventQueue::TaskKind::kObserver);
  }

  cluster.SubmitBatch(slurm::scenarios::LedgerHarnessWorkload(config, 1000));
  cluster.RunUntilIdle();
  cluster.FlushIdleEnergy();  // bill trailing idle before the books close
  if (with_host) {
    auto delta = host.PollDelta();
    EXPECT_TRUE(delta.ok());
    if (delta.ok()) run.host_joules += *delta;
    host.Unload();
    plugin::SetRaplEnergySource(nullptr, nullptr);
  }

  run.dump = ledger.ToJson().Dump();
  run.attributed = ledger.AttributedJoules();
  run.idle = ledger.IdleJoules();
  run.finalized = ledger.finalized_jobs();
  for (const auto& [id, entry] : ledger.jobs()) run.job_sum += entry.joules;
  for (const auto& record : cluster.accounting().records()) {
    if (record.state == JobState::kCompleted) ++run.completed;
  }
  return run;
}

// The conservation invariant: per-job attributed joules plus idle joules
// equal what the acct_gather_energy host measured off the very same taps,
// within 1e-6 relative (the only slack is the plugin's integer-joule MSR
// rounding, which telescopes). Byte-identical at every pool size.
TEST_F(EnergyLedgerTest, ConservationMatchesEnergyGatherHostAcrossPools) {
  std::vector<LedgerRun> runs;
  for (const int threads : {1, 4, 8}) {
    runs.push_back(RunLedgerWorkload(threads, /*with_host=*/true));
  }
  for (const LedgerRun& run : runs) {
    ASSERT_GT(run.host_joules, 0.0);
    EXPECT_GT(run.attributed, 0.0);
    EXPECT_GT(run.idle, 0.0);
    EXPECT_EQ(run.finalized, 1000u);
    // Per-job + idle == ledger total (same additions, different order).
    EXPECT_NEAR(run.job_sum + run.idle, run.attributed + run.idle,
                (run.attributed + run.idle) * 1e-9);
    // Ledger total == host total within 1e-6 relative.
    EXPECT_NEAR(run.attributed + run.idle, run.host_joules,
                run.host_joules * 1e-6);
  }
  EXPECT_EQ(runs[0].dump, runs[1].dump);
  EXPECT_EQ(runs[0].dump, runs[2].dump);
}

// The legacy and sharded engines produced the same schedule on this
// workload (the equivalence suite's contract), so the same energy books:
// the golden holds the legacy engine's schedule and ledger JSON.
TEST_F(EnergyLedgerTest, LegacyAndShardedEnginesKeepIdenticalBooks) {
  slurm::scenarios::ExpectMatchesGolden("ledger_books");
}

// ---------------------------------------- accounting / sacct / sdiag

TEST_F(EnergyLedgerTest, AttributedJoulesFlowIntoAccountingAndSdiag) {
  EnergyLedger ledger;
  telemetry::TimeSeriesStore store;
  ClusterConfig config;
  config.nodes = 8;
  config.energy_ledger = &ledger;
  config.timeseries = &store;
  config.timeseries_resolution_s = 30.0;
  config.partitions.clear();
  PartitionConfig a;
  a.name = "batch";
  a.is_default = true;
  a.node_ranges = {{0, 3}};
  PartitionConfig b;
  b.name = "debug";
  b.is_default = false;
  b.node_ranges = {{4, 7}};
  config.partitions = {a, b};
  ClusterSim cluster(config);

  for (int i = 0; i < 6; ++i) {
    JobRequest request;
    request.name = "j" + std::to_string(i);
    request.num_tasks = 4;
    request.account = i < 3 ? "geo" : "bio";
    request.workload = WorkloadSpec::Fixed(120.0);
    request.partition = i % 2 == 0 ? "batch" : "debug";
    ASSERT_TRUE(cluster.Submit(request).ok());
  }
  cluster.RunUntilIdle();

  // Every completed job carries its ledger charge on the JobRecord, and
  // the AccountingDb total matches the ledger's attributed sum.
  double record_sum = 0.0;
  for (const auto& record : cluster.accounting().records()) {
    EXPECT_GT(record.attributed_joules, 0.0) << record.id;
    EXPECT_DOUBLE_EQ(record.attributed_joules, ledger.JobJoules(record.id));
    record_sum += record.attributed_joules;
  }
  const auto totals = cluster.accounting().Totals();
  EXPECT_NEAR(totals.attributed_joules, record_sum, record_sum * 1e-12);
  EXPECT_NEAR(record_sum, ledger.AttributedJoules(),
              ledger.AttributedJoules() * 1e-9);
  EXPECT_EQ(ledger.by_account().count("geo"), 1u);
  EXPECT_EQ(ledger.by_account().count("bio"), 1u);

  // sacct CSV: the ledger_kj column sits after cpu_kj and is non-zero.
  const std::string csv_path =
      ::testing::TempDir() + "/ledger_sacct_export.csv";
  ASSERT_TRUE(cluster.accounting().ExportCsv(csv_path).ok());
  std::ifstream in(csv_path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(header.find("cpu_kj,ledger_kj"), std::string::npos);
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream stream(line);
    std::string cell;
    while (std::getline(stream, cell, ',')) cells.push_back(cell);
    return cells;
  };
  const auto header_cells = split(header);
  const auto row_cells = split(row);
  ASSERT_EQ(header_cells.size(), row_cells.size());
  std::size_t ledger_col = header_cells.size();
  for (std::size_t i = 0; i < header_cells.size(); ++i) {
    if (header_cells[i] == "ledger_kj") ledger_col = i;
  }
  ASSERT_LT(ledger_col, header_cells.size());
  EXPECT_GT(std::stod(row_cells[ledger_col]), 0.0);

  // sdiag renders both observability sections with live numbers.
  const std::string out = slurm::Sdiag(cluster);
  EXPECT_NE(out.find("Energy ledger:"), std::string::npos);
  EXPECT_NE(out.find("Jobs finalized:"), std::string::npos);
  EXPECT_NE(out.find("Time-series store:"), std::string::npos);
  EXPECT_NE(out.find("Partition batch:"), std::string::npos);
  // Both partitions finalized jobs, so both EDP gauges exist.
  const std::string prom = cluster.metrics().PrometheusText();
  EXPECT_NE(
      prom.find("eco_ledger_edp_joule_seconds{partition=\"batch\"}"),
      std::string::npos);
  EXPECT_NE(
      prom.find("eco_ledger_edp_joule_seconds{partition=\"debug\"}"),
      std::string::npos);
  EXPECT_NE(prom.find("eco_ledger_jobs_finalized_total 6"),
            std::string::npos);
}


// ---------------------------------------- registry publish rule

// The value on `name`'s line of a PrometheusText() dump ("" if absent).
std::string PromValue(const std::string& prom, const std::string& name) {
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) return line.substr(name.size() + 1);
  }
  return "";
}

// The publish rule (energy_ledger.hpp): samples are plain arithmetic, and
// whenever the sim thread returns from RunUntil, RunUntilIdle or
// FlushIdleEnergy the eco_ledger_* registry values equal the books.
TEST_F(EnergyLedgerTest, RegistryMatchesTheBooksAfterEverySimReturn) {
  telemetry::MetricsRegistry registry;
  EnergyLedger ledger;
  ClusterConfig config;
  config.nodes = 4;
  config.metrics = &registry;
  config.energy_ledger = &ledger;
  ClusterSim cluster(config);
  std::uint64_t last_samples = 0;
  int moved = 0;
  const auto expect_coherent = [&](const std::string& where) {
    SCOPED_TRACE(where);
    const std::string prom = registry.PrometheusText();
    EXPECT_EQ(PromValue(prom, "eco_ledger_samples_total"),
              std::to_string(ledger.samples()));
    EXPECT_EQ(registry.GetCounter("eco_ledger_samples_total")->Value(),
              ledger.samples());
    EXPECT_EQ(registry.GetGauge("eco_ledger_attributed_joules")->Value(),
              ledger.AttributedJoules());
    EXPECT_EQ(registry.GetGauge("eco_ledger_idle_joules")->Value(),
              ledger.IdleJoules());
    EXPECT_NEAR(std::stod(PromValue(prom, "eco_ledger_attributed_joules")),
                ledger.AttributedJoules(), 1e-9 * ledger.AttributedJoules());
    EXPECT_NEAR(std::stod(PromValue(prom, "eco_ledger_idle_joules")),
                ledger.IdleJoules(), 1e-9 * ledger.IdleJoules());
    if (ledger.samples() != last_samples) ++moved;
    last_samples = ledger.samples();
  };

  for (int i = 0; i < 8; ++i) {
    cluster.RunUntil(7.5 * i);
    expect_coherent("RunUntil " + std::to_string(7.5 * i));
    JobRequest request;
    request.name = "p" + std::to_string(i);
    request.num_tasks = 4 + 4 * i;
    request.workload = WorkloadSpec::Fixed(10.0 + 3.0 * i, 0.7);
    ASSERT_TRUE(cluster.Submit(request).ok());
    cluster.FlushIdleEnergy();
    expect_coherent("FlushIdleEnergy " + std::to_string(i));
  }
  cluster.RunUntil(61.25);  // mid-run: some jobs finished, some running
  expect_coherent("RunUntil 61.25");
  cluster.RunUntilIdle();
  expect_coherent("RunUntilIdle");
  cluster.RunUntil(cluster.Now() + 30.0);  // nothing due: idle nodes only
  cluster.FlushIdleEnergy();
  expect_coherent("final FlushIdleEnergy");
  EXPECT_EQ(ledger.finalized_jobs(), 8u);
  EXPECT_GT(ledger.AttributedJoules(), 0.0);
  EXPECT_GT(ledger.IdleJoules(), 0.0);
  EXPECT_GE(moved, 8);  // the checks saw the books move, not a frozen zero
}

}  // namespace
}  // namespace eco
