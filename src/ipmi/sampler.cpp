#include "ipmi/sampler.hpp"

#include <cstdio>

namespace eco::ipmi {

TraceStats PowerTrace::Stats() const {
  TraceStats stats;
  stats.samples = samples_.size();
  if (samples_.empty()) return stats;

  double sum_sys = 0.0;
  double sum_cpu = 0.0;
  double sum_temp = 0.0;
  for (const auto& s : samples_) {
    sum_sys += s.system_watts;
    sum_cpu += s.cpu_watts;
    sum_temp += s.cpu_temp_celsius;
  }
  const double n = static_cast<double>(samples_.size());
  stats.avg_system_watts = sum_sys / n;
  stats.avg_cpu_watts = sum_cpu / n;
  stats.avg_cpu_temp = sum_temp / n;
  stats.duration_seconds = samples_.back().t - samples_.front().t;

  // Trapezoidal energy integral over the sampled trace — the same estimate
  // Chronus can make from discrete IPMI reads.
  double sys_joules = 0.0;
  double cpu_joules = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const double dt = samples_[i].t - samples_[i - 1].t;
    sys_joules +=
        0.5 * (samples_[i].system_watts + samples_[i - 1].system_watts) * dt;
    cpu_joules += 0.5 * (samples_[i].cpu_watts + samples_[i - 1].cpu_watts) * dt;
  }
  stats.system_kilojoules = sys_joules / 1000.0;
  stats.cpu_kilojoules = cpu_joules / 1000.0;
  return stats;
}

std::string PowerTrace::ToCsv() const {
  std::string out = "t,system_watts,cpu_watts,cpu_temp\n";
  char line[128];
  for (const auto& s : samples_) {
    std::snprintf(line, sizeof(line), "%.1f,%.1f,%.1f,%.1f\n", s.t,
                  s.system_watts, s.cpu_watts, s.cpu_temp_celsius);
    out += line;
  }
  return out;
}

IpmiSampler::IpmiSampler(EventQueue* queue, BmcSimulator* bmc, double interval_s)
    : queue_(queue), bmc_(bmc), interval_s_(interval_s) {}

void IpmiSampler::Start() {
  if (running()) return;
  Sample(queue_->now());
  task_ = queue_->ScheduleEvery(queue_->now() + interval_s_, interval_s_,
                                [this](SimTime t) { Sample(t); });
}

void IpmiSampler::Stop() {
  queue_->Cancel(task_);
  task_ = 0;
}

void IpmiSampler::Sample(SimTime now) {
  PowerSample sample;
  sample.t = now;
  sample.system_watts = bmc_->ReadTotalPower().value;
  sample.cpu_watts = bmc_->ReadCpuPower().value;
  sample.cpu_temp_celsius = bmc_->ReadCpuTemp().value;
  trace_.Add(sample);
}

}  // namespace eco::ipmi
