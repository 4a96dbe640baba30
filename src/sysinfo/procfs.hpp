// Virtual procfs / sysfs for the simulated node.
//
// Chronus on real hardware reads system information from Linux files
// (/proc/cpuinfo, /proc/meminfo, /sys/devices/system/cpu/.../cpufreq/
// scaling_available_frequencies, §3.4.2). The simulator renders the same
// files from a MachineSpec so the identification code path — read files,
// concatenate, simple_hash — is byte-for-byte the flow from §4.2.1.
#pragma once

#include <string>

#include "common/error.hpp"
#include "hw/cpu_spec.hpp"

namespace eco::sysinfo {

class VirtualProcFs {
 public:
  // Renders and hashes cpuinfo + meminfo once: the spec has no mutator, so
  // the system hash is fixed for the object's lifetime.
  explicit VirtualProcFs(hw::MachineSpec spec);

  [[nodiscard]] const hw::MachineSpec& spec() const { return spec_; }

  // Supported paths: /proc/cpuinfo, /proc/meminfo,
  // /sys/devices/system/cpu/cpu<N>/cpufreq/scaling_available_frequencies.
  [[nodiscard]] Result<std::string> ReadFile(const std::string& path) const;

  [[nodiscard]] std::string CpuInfo() const;
  [[nodiscard]] std::string MemInfo() const;
  [[nodiscard]] std::string ScalingAvailableFrequencies() const;

  // System identity hash per the paper: cpuinfo + meminfo concatenated and
  // fed through simple_hash (computed at construction).
  [[nodiscard]] unsigned long SystemHash() const { return system_hash_; }

 private:
  hw::MachineSpec spec_;
  unsigned long system_hash_;
};

}  // namespace eco::sysinfo
