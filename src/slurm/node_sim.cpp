#include "slurm/node_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace eco::slurm {

NodeSim::NodeSim(std::string name, NodeParams params, EventQueue* queue)
    : name_(std::move(name)),
      params_(params),
      queue_(queue),
      power_model_(params.power),
      thermal_(params.thermal),
      dvfs_(params.machine.cpu, params.default_governor),
      perf_model_(params.perf) {
  // ECO_PERF_CALIBRATION=<BENCH_p4 artifact> refits the analytic model from
  // the measured kernel roofline (no-op when unset), so simulated durations
  // and GFLOPS/W rankings track the kernels this build actually runs.
  hpcg::ApplyEnvCalibration(&perf_model_);
  freq_ = dvfs_.frequency();
  last_update_ = queue_->now();
  idle_mark_ = queue_->now();
  const auto idle = power_model_.SystemPower(
      0, params_.machine.cpu.MinFrequency(), false, 0.0,
      power_model_.params().fan_knee_celsius);
  idle_system_watts_ = idle.system_watts;
  idle_cpu_watts_ = idle.cpu_watts;
  reported_watts_ = idle_system_watts_;
}

double NodeSim::UtilizationAt(SimTime t) const {
  if (!running_) return 0.0;
  switch (workload_.kind) {
    case WorkloadSpec::Kind::kHpcg:
      return perf_model_.UtilizationAt(t - start_time_, tasks_, freq_, ht_);
    case WorkloadSpec::Kind::kFixedDuration:
      return workload_.fixed_utilization;
  }
  return 0.0;
}

Status NodeSim::StartJob(const JobRecord& job, int tasks,
                         CompletionCallback on_done) {
  if (running_) {
    return Status::Error("node " + name_ + ": busy with job " +
                         std::to_string(job_id_));
  }
  const auto& cpu = params_.machine.cpu;
  if (tasks < 1 || tasks > cpu.cores) {
    return Status::Error("node " + name_ + ": " + std::to_string(tasks) +
                         " tasks exceed " + std::to_string(cpu.cores) +
                         " cores");
  }
  const int tpc = job.request.threads_per_core;
  if (tpc < 1 || tpc > cpu.threads_per_core) {
    return Status::Error("node " + name_ + ": unsupported threads_per_core " +
                         std::to_string(tpc));
  }

  // Bill the idle stretch that ends now to the taps before run accruals
  // start, so an attached energy ledger sees idle and busy joules meet
  // exactly at the job boundary.
  EmitIdleGap(queue_->now());

  running_ = true;
  job_id_ = job.id;
  workload_ = job.request.workload;
  tasks_ = tasks;
  ht_ = tpc > 1;
  on_done_ = std::move(on_done);
  start_time_ = queue_->now();
  last_update_ = start_time_;
  progress_flops_ = 0.0;
  energy_system_j_ = energy_cpu_j_ = temp_integral_ = elapsed_ = 0.0;

  // Frequency: a pinned job (the eco plugin's doing) acts like the userspace
  // governor; otherwise the node's default governor decides.
  pinned_ = job.request.cpu_freq_max > 0;
  if (pinned_) {
    dvfs_ = hw::DvfsPolicy(cpu, hw::Governor::kUserspace);
    dvfs_.Pin(job.request.cpu_freq_max);
  } else {
    dvfs_ = hw::DvfsPolicy(cpu, params_.default_governor);
  }
  freq_ = dvfs_.frequency();

  if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
    total_work_flops_ =
        hpcg::HpcgPerfModel::TotalFlops(workload_.problem, tasks_,
                                        workload_.iterations);
  } else {
    total_work_flops_ = 0.0;
  }

  tick_task_ = queue_->ScheduleEvery(queue_->now() + params_.tick_seconds,
                                     params_.tick_seconds,
                                     [this](SimTime t) { Tick(t); });
  ECO_DEBUG << "node " << name_ << ": job " << job_id_ << " started, tasks="
            << tasks_ << " freq=" << freq_ << " ht=" << ht_;
  return Status::Ok();
}

void NodeSim::Accrue(double dt) {
  if (dt <= 0.0) return;
  const double u = UtilizationAt(last_update_);
  const auto breakdown = power_model_.SystemPower(running_ ? tasks_ : 0, freq_,
                                                  ht_, u, thermal_.temperature());
  energy_system_j_ += breakdown.system_watts * dt;
  energy_cpu_j_ += breakdown.cpu_watts * dt;
  reported_watts_ = breakdown.system_watts;
  for (const EnergyTap& tap : energy_taps_) {
    tap(breakdown.system_watts, breakdown.cpu_watts, dt);
  }
  temp_integral_ += thermal_.temperature() * dt;
  thermal_.Advance(dt, breakdown.cpu_watts);
  elapsed_ += dt;
}

void NodeSim::Tick(SimTime now) {
  const double dt = now - last_update_;

  // Progress at the frequency in force during [last_update_, now).
  double rate_flops = 0.0;
  if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
    rate_flops = perf_model_.Gflops(tasks_, freq_, ht_) * 1e9;
    progress_flops_ += rate_flops * dt;
  }
  Accrue(dt);
  last_update_ = now;

  // Governor reacts to the utilization it just observed.
  freq_ = dvfs_.Step(UtilizationAt(now));

  // Completion?
  bool done = false;
  if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
    done = progress_flops_ >= total_work_flops_;
  } else {
    done = now - start_time_ >= workload_.fixed_duration_s - 1e-9;
  }
  if (done) {
    // Stop ticking before the callback: it may start the next job here.
    queue_->Cancel(tick_task_);
    running_ = false;
    idle_mark_ = now;  // before the callback: it may start the next job
    reported_watts_ = idle_system_watts_;
    flops_done_at_end_ = progress_flops_;
    const RunStats stats = FinalStats();
    const JobId id = job_id_;
    ECO_DEBUG << "node " << name_ << ": job " << id << " done in "
              << stats.seconds << "s, " << stats.gflops << " GFLOPS";
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    if (cb) cb(id, stats);
  }
}

RunStats NodeSim::FinalStats() const {
  RunStats stats;
  stats.seconds = elapsed_;
  stats.system_joules = energy_system_j_;
  stats.cpu_joules = energy_cpu_j_;
  if (elapsed_ > 0.0) {
    stats.avg_cpu_temp = temp_integral_ / elapsed_;
    stats.avg_system_watts = energy_system_j_ / elapsed_;
    stats.avg_cpu_watts = energy_cpu_j_ / elapsed_;
    if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
      stats.gflops = flops_done_at_end_ / elapsed_ / 1e9;
    }
  }
  return stats;
}

RunStats NodeSim::CancelJob() {
  if (!running_) return RunStats{};
  const SimTime now = queue_->now();
  if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
    progress_flops_ += perf_model_.Gflops(tasks_, freq_, ht_) * 1e9 *
                       (now - last_update_);
  }
  Accrue(now - last_update_);
  last_update_ = now;
  flops_done_at_end_ = progress_flops_;
  running_ = false;
  idle_mark_ = now;
  reported_watts_ = idle_system_watts_;
  on_done_ = nullptr;
  queue_->Cancel(tick_task_);
  return FinalStats();
}

void NodeSim::EmitIdleGap(SimTime now) {
  const double dt = now - idle_mark_;
  idle_mark_ = now;
  if (dt <= 0.0) return;
  for (const EnergyTap& tap : energy_taps_) {
    tap(idle_system_watts_, idle_cpu_watts_, dt);
  }
}

void NodeSim::FlushIdleEnergy() {
  if (!running_) EmitIdleGap(queue_->now());
}

void NodeSim::IdleAdvance() const {
  const SimTime now = queue_->now();
  const double dt = now - last_update_;
  if (dt <= 0.0) return;
  // Idle: uncore-only CPU power drives the thermal model.
  const double idle_cpu_w = power_model_.CpuPower(0, freq_, false, 0.0);
  thermal_.Advance(dt, idle_cpu_w);
  last_update_ = now;
}

double NodeSim::SystemWatts() const {
  if (!running_) IdleAdvance();
  const double u = UtilizationAt(queue_->now());
  return power_model_
      .SystemPower(running_ ? tasks_ : 0, freq_, ht_, u, thermal_.temperature())
      .system_watts;
}

double NodeSim::CpuWatts() const {
  if (!running_) IdleAdvance();
  const double u = UtilizationAt(queue_->now());
  return power_model_.CpuPower(running_ ? tasks_ : 0, freq_, ht_, u);
}

double NodeSim::CpuTempCelsius() const {
  if (!running_) IdleAdvance();
  return thermal_.temperature();
}

}  // namespace eco::slurm
