// Simulated compute node (the slurmd side).
//
// A NodeSim owns the machine's power, thermal and DVFS models and runs at
// most one job at a time (exclusive allocation, as on the paper's test
// node). While a job runs the node ticks once per simulated second:
//
//   utilization u(t)  ->  governor step (may change frequency)
//                     ->  instantaneous power (hw::PowerModel)
//                     ->  thermal advance, energy integrals
//                     ->  workload progress (FLOPs done at modelled GFLOPS)
//
// Because progress integrates the *current* frequency's GFLOPS, governor
// dynamics (e.g. ondemand bouncing between levels) genuinely change runtime
// and energy — not just an average. The node implements ipmi::PowerSource,
// so a BmcSimulator attached to it sees the same signals a real BMC would.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sim_clock.hpp"
#include "hpcg/perf_model.hpp"
#include "hw/cpu_spec.hpp"
#include "hw/dvfs.hpp"
#include "hw/power_model.hpp"
#include "hw/thermal.hpp"
#include "ipmi/bmc.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

struct NodeParams {
  hw::MachineSpec machine = hw::MachineSpec::Epyc7502P();
  hw::PowerModelParams power = hw::PowerModelParams::Epyc7502P();
  hw::ThermalParams thermal = hw::ThermalParams::Epyc7502P();
  hpcg::PerfModelParams perf = hpcg::PerfModelParams::Epyc7502P();
  hw::Governor default_governor = hw::Governor::kPerformance;
  double tick_seconds = 1.0;
};

struct RunStats {
  double seconds = 0.0;
  double system_joules = 0.0;
  double cpu_joules = 0.0;
  double gflops = 0.0;     // total FLOPs done / seconds (0 for fixed jobs)
  double avg_cpu_temp = 0.0;
  double avg_system_watts = 0.0;
  double avg_cpu_watts = 0.0;
};

class NodeSim : public ipmi::PowerSource {
 public:
  NodeSim(std::string name, NodeParams params, EventQueue* queue);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const hw::MachineSpec& machine() const { return params_.machine; }
  [[nodiscard]] const NodeParams& params() const { return params_; }
  [[nodiscard]] bool idle() const { return !running_; }
  [[nodiscard]] JobId running_job() const { return job_id_; }
  [[nodiscard]] KiloHertz current_frequency() const { return freq_; }

  // Partitions this node belongs to, in cluster-config order. Tagged by
  // ClusterSim at construction; a node in overlapping partitions carries
  // every owner's name (like slurm.conf NodeName= appearing in several
  // PartitionName= lines).
  [[nodiscard]] const std::vector<std::string>& partitions() const {
    return partitions_;
  }
  void AddPartition(const std::string& name) { partitions_.push_back(name); }

  using CompletionCallback = std::function<void(JobId, const RunStats&)>;
  // Observes every energy accrual: (system_watts, cpu_watts, dt_seconds).
  // Used to drive external energy counters (e.g. the RAPL simulator behind
  // acct_gather_energy/rapl) without coupling the node to them.
  using EnergyTap = std::function<void(double, double, double)>;

  // Installs an additional tap; all taps see every accrual, in installation
  // order. The energy ledger and the RAPL/IPMI plugin sources can therefore
  // observe the same node independently.
  void AddEnergyTap(EnergyTap tap) {
    if (tap) energy_taps_.push_back(std::move(tap));
  }

  // Emits the idle-draw energy accumulated since the node last went idle to
  // the taps (per-run stats are untouched — idle energy belongs to the
  // cluster, not to any job). StartJob flushes the preceding idle gap
  // automatically; call this at end of sim to bill the trailing gap.
  void FlushIdleEnergy();

  // Starts `tasks` ranks of the job's workload on this node. The request's
  // cpu_freq_max (if set) pins the frequency; otherwise the node's default
  // governor rules. Fails if busy or the request exceeds the hardware.
  Status StartJob(const JobRecord& job, int tasks, CompletionCallback on_done);

  // Cancels the running job; the completion callback is NOT invoked.
  // Returns stats for the partial run.
  RunStats CancelJob();

  // System watts over the node's most recent accrual interval (idle draw
  // when idle). Updated only at sim events, so it is a pure O(1) read —
  // what the 1 Hz time-series sampler sums instead of re-evaluating the
  // power model per node per sample (SystemWatts() stays the exact
  // instantaneous value for IPMI/BMC reads).
  [[nodiscard]] double ReportedWatts() const { return reported_watts_; }

  // ipmi::PowerSource — instantaneous true values.
  [[nodiscard]] double SystemWatts() const override;
  [[nodiscard]] double CpuWatts() const override;
  [[nodiscard]] double CpuTempCelsius() const override;

 private:
  void Tick(SimTime now);
  // Instantaneous utilization of the running workload at sim time `t`.
  [[nodiscard]] double UtilizationAt(SimTime t) const;
  // Accrues dt seconds of power/thermal/energy at the current settings.
  void Accrue(double dt);
  [[nodiscard]] RunStats FinalStats() const;
  // Decays temperature toward idle steady state for reads while idle.
  void IdleAdvance() const;
  // Fires the taps with the idle draw over [idle_mark_, now), then moves the
  // mark to `now`.
  void EmitIdleGap(SimTime now);

  std::string name_;
  NodeParams params_;
  EventQueue* queue_;
  std::vector<std::string> partitions_;
  hw::PowerModel power_model_;
  mutable hw::ThermalModel thermal_;
  hw::DvfsPolicy dvfs_;
  hpcg::HpcgPerfModel perf_model_;

  // Run state.
  bool running_ = false;
  JobId job_id_ = 0;
  WorkloadSpec workload_{};
  int tasks_ = 0;
  bool ht_ = false;
  bool pinned_ = false;
  KiloHertz freq_ = 0;
  SimTime start_time_ = 0.0;
  double total_work_flops_ = 0.0;  // kHpcg
  double progress_flops_ = 0.0;
  double flops_done_at_end_ = 0.0;
  std::uint64_t tick_task_ = 0;  // the running job's periodic Tick
  CompletionCallback on_done_;
  std::vector<EnergyTap> energy_taps_;

  // Constant idle draw (min frequency, thermally settled at the fan knee —
  // the same steady state EstimateJobWatts subtracts) billed to the taps for
  // the gaps between runs. Cached at construction.
  double idle_system_watts_ = 0.0;
  double idle_cpu_watts_ = 0.0;
  // When the node last became idle (construction, job end, or cancel).
  SimTime idle_mark_ = 0.0;
  // Last accrual interval's system watts; idle draw while idle.
  double reported_watts_ = 0.0;

  // Accumulators for the current run.
  double energy_system_j_ = 0.0;
  double energy_cpu_j_ = 0.0;
  double temp_integral_ = 0.0;
  double elapsed_ = 0.0;
  mutable SimTime last_update_ = 0.0;
};

}  // namespace eco::slurm
