// Periodic IPMI sampling into a power/temperature trace.
//
// Chronus samples the BMC at a 2-3 second cadence while a benchmark job runs
// (§3.1.2 step 2; §5.2 used 3 s). The trace supports the aggregates the
// paper reports in Table 2: average system/CPU watts, total kJ (trapezoidal
// energy integral), average CPU temperature, and runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_clock.hpp"
#include "ipmi/bmc.hpp"

namespace eco::ipmi {

struct PowerSample {
  SimTime t = 0.0;
  double system_watts = 0.0;
  double cpu_watts = 0.0;
  double cpu_temp_celsius = 0.0;
};

struct TraceStats {
  double avg_system_watts = 0.0;
  double avg_cpu_watts = 0.0;
  double avg_cpu_temp = 0.0;
  double system_kilojoules = 0.0;
  double cpu_kilojoules = 0.0;
  double duration_seconds = 0.0;
  std::size_t samples = 0;
};

class PowerTrace {
 public:
  void Add(PowerSample sample) { samples_.push_back(sample); }
  void Clear() { samples_.clear(); }
  [[nodiscard]] const std::vector<PowerSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] TraceStats Stats() const;

  // Writes "t,system_watts,cpu_watts,cpu_temp" rows (header included) —
  // the Figure 15 series in a plottable form.
  [[nodiscard]] std::string ToCsv() const;

 private:
  std::vector<PowerSample> samples_;
};

// Event-queue-driven sampler: while running, reads the BMC every
// `interval_s` and appends to its trace.
class IpmiSampler {
 public:
  IpmiSampler(EventQueue* queue, BmcSimulator* bmc, double interval_s = 3.0);

  // Takes an immediate sample and schedules subsequent ones.
  void Start();
  void Stop();
  [[nodiscard]] bool running() const { return task_ != 0; }

  [[nodiscard]] const PowerTrace& trace() const { return trace_; }
  [[nodiscard]] PowerTrace& trace() { return trace_; }

 private:
  void Sample(SimTime now);

  EventQueue* queue_;
  BmcSimulator* bmc_;
  double interval_s_;
  std::uint64_t task_ = 0;  // the periodic Sample task while running
  PowerTrace trace_;
};

}  // namespace eco::ipmi
