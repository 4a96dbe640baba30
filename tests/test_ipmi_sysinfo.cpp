#include <gtest/gtest.h>

#include <cmath>

#include "common/sim_clock.hpp"
#include "ipmi/bmc.hpp"
#include "ipmi/sampler.hpp"
#include "sysinfo/lscpu.hpp"
#include "sysinfo/procfs.hpp"
#include "sysinfo/simple_hash.hpp"

namespace eco {
namespace {

// A constant-output power source for instrument tests.
class FixedSource : public ipmi::PowerSource {
 public:
  FixedSource(double sys, double cpu, double temp)
      : sys_(sys), cpu_(cpu), temp_(temp) {}
  double SystemWatts() const override { return sys_; }
  double CpuWatts() const override { return cpu_; }
  double CpuTempCelsius() const override { return temp_; }
  double sys_, cpu_, temp_;
};

// ------------------------------------------------------------------- BMC

TEST(Bmc, ReadsTrackTruthWithinNoise) {
  FixedSource source(258.0, 120.0, 62.0);
  ipmi::BmcSimulator bmc(&source, ipmi::BmcParams{}, Rng(1));
  double sum = 0.0;
  for (int i = 0; i < 200; ++i) sum += bmc.ReadTotalPower().value;
  EXPECT_NEAR(sum / 200.0, 258.0, 1.0);
}

TEST(Bmc, QuantizesToWholeWatts) {
  FixedSource source(258.4, 120.0, 62.0);
  ipmi::BmcParams params;
  params.noise_stddev_watts = 0.0;
  ipmi::BmcSimulator bmc(&source, params, Rng(1));
  const double v = bmc.ReadTotalPower().value;
  EXPECT_DOUBLE_EQ(v, std::round(v));
}

TEST(Bmc, NeverReportsNegativePower) {
  FixedSource source(0.5, 0.1, 25.0);
  ipmi::BmcParams params;
  params.noise_stddev_watts = 5.0;
  ipmi::BmcSimulator bmc(&source, params, Rng(3));
  for (int i = 0; i < 300; ++i) EXPECT_GE(bmc.ReadTotalPower().value, 0.0);
}

TEST(Bmc, SdrListHasPaperSensors) {
  FixedSource source(258.0, 120.0, 62.0);
  ipmi::BmcSimulator bmc(&source, ipmi::BmcParams{}, Rng(1));
  const auto sdr = bmc.SdrList();
  ASSERT_EQ(sdr.size(), 3u);
  EXPECT_EQ(sdr[0].name, "Total_Power");
  EXPECT_EQ(sdr[0].unit, "Watts");
  EXPECT_EQ(sdr[1].name, "CPU_Power");
  EXPECT_EQ(sdr[2].name, "CPU_Temp");
  // Figure 13 renders "Total_Power | 258 Watts"-style lines.
  const std::string rendered = ipmi::BmcSimulator::RenderSdr(sdr);
  EXPECT_NE(rendered.find("Total_Power"), std::string::npos);
  EXPECT_NE(rendered.find("Watts"), std::string::npos);
}

// ------------------------------------------------------------- Wattmeter

TEST(Wattmeter, AcExceedsDcByConversionLoss) {
  FixedSource source(258.0, 120.0, 62.0);
  ipmi::Wattmeter meter(&source, ipmi::WattmeterParams{});
  EXPECT_GT(meter.TotalAcWatts(), 258.0);
  // Eq. 1: |IPMI − wattmeter| / IPMI ≈ 5.96 %.
  const double diff = std::abs(258.0 - meter.TotalAcWatts()) / 258.0 * 100.0;
  EXPECT_NEAR(diff, 5.96, 0.3);
}

TEST(Wattmeter, PerPsuReadingsSumAndImbalance) {
  // §5.1: the two PSUs read 129.7 W and 143.7 W on the same chassis.
  FixedSource source(258.0, 120.0, 62.0);
  ipmi::Wattmeter meter(&source, ipmi::WattmeterParams{});
  const auto psus = meter.PerPsuWatts();
  ASSERT_EQ(psus.size(), 2u);
  EXPECT_NEAR(psus[0] + psus[1], meter.TotalAcWatts(), 1e-9);
  EXPECT_LT(psus[0], psus[1]);  // imbalanced like the paper's measurement
}

// --------------------------------------------------------------- Sampler

TEST(Sampler, SamplesAtConfiguredCadence) {
  FixedSource source(200.0, 100.0, 50.0);
  ipmi::BmcParams quiet;
  quiet.noise_stddev_watts = 0.0;
  ipmi::BmcSimulator bmc(&source, quiet, Rng(1));
  EventQueue queue;
  ipmi::IpmiSampler sampler(&queue, &bmc, 3.0);
  sampler.Start();
  queue.RunUntil(30.0);
  sampler.Stop();
  // t=0,3,...,30 inclusive.
  EXPECT_EQ(sampler.trace().samples().size(), 11u);
  EXPECT_DOUBLE_EQ(sampler.trace().samples()[1].t, 3.0);
}

TEST(Sampler, StopCancelsFutureSamples) {
  FixedSource source(200.0, 100.0, 50.0);
  ipmi::BmcSimulator bmc(&source, ipmi::BmcParams{}, Rng(1));
  EventQueue queue;
  ipmi::IpmiSampler sampler(&queue, &bmc, 1.0);
  sampler.Start();
  queue.RunUntil(5.0);
  sampler.Stop();
  const auto count = sampler.trace().samples().size();
  queue.RunUntil(50.0);
  EXPECT_EQ(sampler.trace().samples().size(), count);
  EXPECT_TRUE(queue.empty());
}

TEST(TraceStats, EnergyIntegralMatchesConstantPower) {
  ipmi::PowerTrace trace;
  for (int i = 0; i <= 100; ++i) {
    trace.Add({static_cast<SimTime>(i), 200.0, 100.0, 55.0});
  }
  const auto stats = trace.Stats();
  EXPECT_DOUBLE_EQ(stats.avg_system_watts, 200.0);
  EXPECT_DOUBLE_EQ(stats.system_kilojoules, 200.0 * 100.0 / 1000.0);
  EXPECT_DOUBLE_EQ(stats.cpu_kilojoules, 100.0 * 100.0 / 1000.0);
  EXPECT_DOUBLE_EQ(stats.duration_seconds, 100.0);
  EXPECT_DOUBLE_EQ(stats.avg_cpu_temp, 55.0);
}

TEST(TraceStats, EmptyAndSingleSampleSafe) {
  ipmi::PowerTrace trace;
  EXPECT_EQ(trace.Stats().samples, 0u);
  trace.Add({0.0, 100.0, 50.0, 40.0});
  const auto stats = trace.Stats();
  EXPECT_EQ(stats.samples, 1u);
  EXPECT_DOUBLE_EQ(stats.system_kilojoules, 0.0);
}

// ------------------------------------------------------------ SimpleHash

TEST(SimpleHash, MatchesPaperAlgorithm) {
  // Listing 3: hash = 53871; hash = hash*33 + c for each char.
  unsigned long expected = 53871;
  for (const char c : std::string("abc")) {
    expected = expected * 33 + static_cast<unsigned char>(c);
  }
  EXPECT_EQ(sysinfo::SimpleHash("abc"), expected);
}

TEST(SimpleHash, EmptyStringIsSeed) {
  EXPECT_EQ(sysinfo::SimpleHash(""), 53871ul);
}

TEST(SimpleHash, DifferentInputsDiffer) {
  EXPECT_NE(sysinfo::SimpleHash("AMD EPYC 7502P"),
            sysinfo::SimpleHash("AMD EPYC 7502"));
}

TEST(SimpleHash, HashToStringIsHex) {
  const std::string s = sysinfo::HashToString(255);
  EXPECT_EQ(s, "ff");
}

// ---------------------------------------------------------------- ProcFs

TEST(ProcFs, CpuInfoListsAllLogicalCpus) {
  sysinfo::VirtualProcFs procfs(hw::MachineSpec::Epyc7502P());
  const std::string cpuinfo = procfs.CpuInfo();
  EXPECT_NE(cpuinfo.find("processor\t: 0"), std::string::npos);
  EXPECT_NE(cpuinfo.find("processor\t: 63"), std::string::npos);
  EXPECT_EQ(cpuinfo.find("processor\t: 64"), std::string::npos);
  EXPECT_NE(cpuinfo.find("AMD EPYC 7502P 32-Core Processor"),
            std::string::npos);
}

TEST(ProcFs, MemInfoReportsRam) {
  sysinfo::VirtualProcFs procfs(hw::MachineSpec::Epyc7502P());
  EXPECT_NE(procfs.MemInfo().find(std::to_string(GiB(256) / 1024)),
            std::string::npos);
}

TEST(ProcFs, ScalingFrequenciesDescendLikeSysfs) {
  sysinfo::VirtualProcFs procfs(hw::MachineSpec::Epyc7502P());
  EXPECT_EQ(procfs.ScalingAvailableFrequencies(),
            "2500000 2200000 1500000\n");
}

TEST(ProcFs, ReadFileRoutesPaths) {
  sysinfo::VirtualProcFs procfs(hw::MachineSpec::Epyc7502P());
  EXPECT_TRUE(procfs.ReadFile("/proc/cpuinfo").ok());
  EXPECT_TRUE(procfs.ReadFile("/proc/meminfo").ok());
  EXPECT_TRUE(procfs
                  .ReadFile("/sys/devices/system/cpu/cpu0/cpufreq/"
                            "scaling_available_frequencies")
                  .ok());
  EXPECT_FALSE(procfs.ReadFile("/etc/passwd").ok());
}

TEST(ProcFs, SystemHashStableAndSpecSensitive) {
  sysinfo::VirtualProcFs a(hw::MachineSpec::Epyc7502P());
  sysinfo::VirtualProcFs b(hw::MachineSpec::Epyc7502P());
  EXPECT_EQ(a.SystemHash(), b.SystemHash());
  sysinfo::VirtualProcFs c(hw::MachineSpec::TestNode());
  EXPECT_NE(a.SystemHash(), c.SystemHash());
}

TEST(ProcFs, SystemHashIsThePaperHashOfCpuinfoAndMeminfo) {
  // Computed once at construction; it must still be exactly §4.2.1's hash.
  for (const auto& spec :
       {hw::MachineSpec::Epyc7502P(), hw::MachineSpec::TestNode()}) {
    const sysinfo::VirtualProcFs procfs(spec);
    EXPECT_EQ(procfs.SystemHash(),
              sysinfo::SimpleHash(procfs.CpuInfo() + procfs.MemInfo()));
  }
}

// ----------------------------------------------------------------- lscpu

TEST(Lscpu, ParsesSpecBackOutOfProcfs) {
  sysinfo::VirtualProcFs procfs(hw::MachineSpec::Epyc7502P());
  const auto info = sysinfo::ReadLscpu(procfs);
  EXPECT_EQ(info.cpu_name, "AMD EPYC 7502P 32-Core Processor");
  EXPECT_EQ(info.cores, 32);
  EXPECT_EQ(info.threads_per_core, 2);
  ASSERT_EQ(info.frequencies.size(), 3u);
  EXPECT_EQ(info.frequencies.front(), kHz(1'500'000));  // sorted ascending
  EXPECT_EQ(info.frequencies.back(), kHz(2'500'000));
  EXPECT_EQ(info.ram_bytes, GiB(256));
}

TEST(Lscpu, ToStringMatchesChronusLogFormat) {
  // Figure 1 logs: "SystemInfo(cpu_name='AMD EPYC 7502P 32-Core Processor',
  // cores=32, threads_per_core=2, frequencies=[1500000.0, ...])".
  sysinfo::VirtualProcFs procfs(hw::MachineSpec::Epyc7502P());
  const std::string s = sysinfo::ReadLscpu(procfs).ToString();
  EXPECT_NE(s.find("cpu_name='AMD EPYC 7502P 32-Core Processor'"),
            std::string::npos);
  EXPECT_NE(s.find("cores=32"), std::string::npos);
  EXPECT_NE(s.find("1500000.0"), std::string::npos);
}

}  // namespace
}  // namespace eco
