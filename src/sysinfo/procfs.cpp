#include "sysinfo/procfs.hpp"

#include <sstream>

#include "common/strings.hpp"
#include "sysinfo/simple_hash.hpp"

namespace eco::sysinfo {

VirtualProcFs::VirtualProcFs(hw::MachineSpec spec)
    : spec_(std::move(spec)), system_hash_(SimpleHash(CpuInfo() + MemInfo())) {}

std::string VirtualProcFs::CpuInfo() const {
  const auto& cpu = spec_.cpu;
  std::ostringstream out;
  const int logical = cpu.cores * cpu.threads_per_core;
  const double mhz = static_cast<double>(cpu.MaxFrequency()) / 1000.0;
  for (int i = 0; i < logical; ++i) {
    out << "processor\t: " << i << "\n";
    out << "vendor_id\t: AuthenticAMD\n";
    out << "model name\t: " << cpu.model_name << "\n";
    out << "cpu MHz\t\t: " << FormatDouble(mhz, 3) << "\n";
    out << "physical id\t: 0\n";
    out << "siblings\t: " << logical << "\n";
    out << "core id\t\t: " << (i % cpu.cores) << "\n";
    out << "cpu cores\t: " << cpu.cores << "\n";
    out << "\n";
  }
  return out.str();
}

std::string VirtualProcFs::MemInfo() const {
  std::ostringstream out;
  const std::uint64_t total_kb = spec_.ram_bytes / 1024;
  out << "MemTotal:       " << total_kb << " kB\n";
  out << "MemFree:        " << total_kb * 9 / 10 << " kB\n";
  out << "MemAvailable:   " << total_kb * 9 / 10 << " kB\n";
  return out.str();
}

std::string VirtualProcFs::ScalingAvailableFrequencies() const {
  std::ostringstream out;
  // sysfs lists kHz values space-separated, highest first.
  const auto& freqs = spec_.cpu.available_frequencies;
  for (auto it = freqs.rbegin(); it != freqs.rend(); ++it) {
    if (it != freqs.rbegin()) out << ' ';
    out << *it;
  }
  out << '\n';
  return out.str();
}

Result<std::string> VirtualProcFs::ReadFile(const std::string& path) const {
  if (path == "/proc/cpuinfo") return CpuInfo();
  if (path == "/proc/meminfo") return MemInfo();
  if (StartsWith(path, "/sys/devices/system/cpu/") &&
      EndsWith(path, "/cpufreq/scaling_available_frequencies")) {
    return ScalingAvailableFrequencies();
  }
  return Result<std::string>::Error("procfs: no such file: " + path);
}

}  // namespace eco::sysinfo
