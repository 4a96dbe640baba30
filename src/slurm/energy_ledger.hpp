// Per-job energy attribution ledger.
//
// NodeSim's energy taps deliver every watt-second the power model produces
// (running accruals AND idle gaps) as (node, joules) samples on the serial
// sim thread. The ledger holds a per-node occupancy list — which jobs are
// charged for that node and at what share — maintained by ClusterSim's
// start/finalize path, and splits each sample accordingly:
//
//   * no occupant          -> idle energy
//   * occupants' shares    -> each job gets joules * share / max(sum, 1)
//   * leftover share < 1   -> the un-sold fraction is idle energy
//
// Whole-node scheduling today always uses share = 1.0; the share field is
// the proration hook for the co-scheduling ROADMAP item (two half-node jobs
// at share 0.5 each split the node's draw). Totals roll up to (job, user,
// account, partition); partitions additionally accumulate an
// energy-delay-product (attributed joules x run seconds, the paper's EDP
// figure of merit) when a job finalizes.
//
// Determinism: every mutation happens on the sim thread in event order, so
// ToJson() is byte-identical across worker-pool sizes, like the Tracer.
// Invariant (tested): attributed + idle joules == the sum of all tap
// samples == what an EnergyGatherHost wired to the same taps reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/telemetry/metrics.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

struct LedgerJobEntry {
  JobId job = 0;
  std::uint32_t user = 0;
  std::string account;    // "" = no account, kept verbatim
  std::string partition;  // resolved partition name
  double joules = 0.0;
  double run_seconds = 0.0;
  bool finalized = false;
};

struct LedgerAggregate {
  double joules = 0.0;
  std::uint64_t jobs = 0;
  // Partitions only: sum over finalized jobs of joules * run_seconds.
  double edp_joule_seconds = 0.0;
};

class EnergyLedger {
 public:
  EnergyLedger() = default;
  EnergyLedger(const EnergyLedger&) = delete;
  EnergyLedger& operator=(const EnergyLedger&) = delete;

  // Publishes eco_ledger_* gauges/counters (attributed/idle joules, jobs
  // finalized, samples, per-partition EDP) into `registry`.
  //
  // Publish rule: OnEnergySample is plain arithmetic on the sim thread (one
  // per node tick), so the sample count and the attributed/idle joules reach
  // the registry only at Publish(): FinalizeJob calls it, and ClusterSim
  // calls it whenever the sim thread returns from RunUntil, RunUntilIdle or
  // FlushIdleEnergy. Between those points a live /metrics scrape, or a
  // TimeSeriesStore tracking these names from inside the event loop, reads
  // the values of the last one; after them eco_ledger_samples_total,
  // eco_ledger_attributed_joules and eco_ledger_idle_joules equal samples(),
  // AttributedJoules() and IdleJoules() exactly. The finalized-job counter
  // and the per-partition EDP gauges move in FinalizeJob itself.
  void Bind(telemetry::MetricsRegistry* registry);
  // Brings the registry's sample count and joule gauges up to the books.
  void Publish();

  // Sizes the occupancy table; called by ClusterSim before any spans open.
  void SetNodeCount(std::size_t nodes);

  // Opens a charge span: `job` is billed `share` of node `node`'s energy
  // until EndSpans. Creates the job's ledger entry on first sight.
  void BeginSpan(std::size_t node, const JobRecord& job, double share = 1.0);
  // Closes every span the job holds (all its nodes).
  void EndSpans(JobId job);

  // One energy sample from a node tap: watts * dt, already integrated.
  void OnEnergySample(std::size_t node, double joules);

  // Records run time, rolls the job's joules into the per-user/account/
  // partition aggregates and the partition EDP. Idempotent per job.
  void FinalizeJob(const JobRecord& job);

  [[nodiscard]] double JobJoules(JobId id) const;
  [[nodiscard]] double AttributedJoules() const { return attributed_joules_; }
  [[nodiscard]] double IdleJoules() const { return idle_joules_; }
  [[nodiscard]] double TotalJoules() const {
    return attributed_joules_ + idle_joules_;
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t finalized_jobs() const { return finalized_; }
  [[nodiscard]] const std::map<JobId, LedgerJobEntry>& jobs() const {
    return jobs_;
  }
  [[nodiscard]] const std::map<std::uint32_t, LedgerAggregate>& by_user()
      const {
    return by_user_;
  }
  [[nodiscard]] const std::map<std::string, LedgerAggregate>& by_account()
      const {
    return by_account_;
  }
  [[nodiscard]] const std::map<std::string, LedgerAggregate>& by_partition()
      const {
    return by_partition_;
  }

  // Full deterministic dump (std::map ordering throughout) — the bitwise
  // cross-pool / cross-engine equality witness in tests.
  [[nodiscard]] Json ToJson() const;

 private:
  struct Occupant {
    JobId job = 0;
    double share = 1.0;
    LedgerJobEntry* entry = nullptr;  // stable: jobs_ is a node-based map
  };

  LedgerJobEntry* EntryFor(const JobRecord& job);

  std::vector<std::vector<Occupant>> occupancy_;
  std::map<JobId, std::vector<std::size_t>> job_nodes_;
  std::map<JobId, LedgerJobEntry> jobs_;
  std::map<std::uint32_t, LedgerAggregate> by_user_;
  std::map<std::string, LedgerAggregate> by_account_;
  std::map<std::string, LedgerAggregate> by_partition_;
  double attributed_joules_ = 0.0;
  double idle_joules_ = 0.0;
  std::uint64_t samples_ = 0;
  std::uint64_t published_samples_ = 0;  // samples_ at the last Publish()
  std::uint64_t finalized_ = 0;

  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::Gauge* metric_attributed_ = nullptr;
  telemetry::Gauge* metric_idle_ = nullptr;
  telemetry::Counter* metric_jobs_ = nullptr;
  telemetry::Counter* metric_samples_ = nullptr;
  std::map<std::string, telemetry::Gauge*> metric_edp_;  // per partition
};

}  // namespace eco::slurm
