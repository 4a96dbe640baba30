// P1 — serial vs thread-pool scaling for every layer the shared runtime
// drives: the HPCG kernels (SpMV, colored SymGS, chunked Dot), random-forest
// training, and a Chronus benchmark sweep over a reentrant runner.
//
// Two claims are checked, not just reported:
//  - Equivalence (always): the pooled result must match the serial result
//    bit-for-bit (kernels, forest JSON) or record-for-record (sweep). Any
//    mismatch exits non-zero.
//  - Speedup (only on machines with >= 4 hardware threads): the 4-thread
//    pool must be >= 2x faster than serial on the kernel workload, per the
//    acceptance criterion. On smaller machines the assertion is skipped —
//    a pool cannot beat serial without cores to run on. Each kernel's
//    serial and pooled reps alternate and the gate compares best-of-reps,
//    so a load spike on a shared machine hits both sides instead of
//    failing the gate (bench_p4's tier-gate discipline).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "chronus/env.hpp"
#include "hpcg/geometry.hpp"
#include "hpcg/stencil.hpp"
#include "hpcg/vector_ops.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"

namespace {

using namespace eco;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

template <typename Fn>
double TimeMs(Fn&& fn, int repeats) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (int i = 0; i < repeats; ++i) fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / repeats;
}

// Alternates single serial and pooled reps and returns each side's fastest
// rep in ms: the min over interleaved pairs is the stable estimator of the
// true cost ratio on a shared box.
template <typename SerialFn, typename PoolFn>
std::pair<double, double> PairedBestMs(SerialFn&& serial, PoolFn&& pooled,
                                       int repeats) {
  double serial_ms = 1e300, pool_ms = 1e300;
  for (int i = 0; i < repeats; ++i) {
    serial_ms = std::min(serial_ms, TimeMs(serial, 1));
    pool_ms = std::min(pool_ms, TimeMs(pooled, 1));
  }
  return {serial_ms, pool_ms};
}

void Report(const char* name, double serial_ms, double pool_ms) {
  std::printf("%-28s serial %9.3f ms   pool %9.3f ms   speedup %5.2fx\n",
              name, serial_ms, pool_ms,
              pool_ms > 0.0 ? serial_ms / pool_ms : 0.0);
}

hpcg::Vec RandomVec(std::int64_t n, std::uint64_t seed) {
  hpcg::Vec v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

bool BitwiseEqual(const hpcg::Vec& a, const hpcg::Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// ------------------------------------------------------------ HPCG kernels

double BenchKernels(ThreadPool& pool) {
  const hpcg::Geometry geo{64, 64, 64};
  const auto x = RandomVec(geo.size(), 1);
  hpcg::Vec y_serial(x.size()), y_pool(x.size());
  hpcg::Vec z_serial(x.size(), 0.0), z_pool(x.size(), 0.0);

  constexpr int kReps = 20;
  const auto [spmv_serial, spmv_pool] =
      PairedBestMs([&] { hpcg::SpMV(geo, x, y_serial); },
                   [&] { hpcg::SpMV(geo, x, y_pool, &pool); }, kReps);
  Report("SpMV 64^3", spmv_serial, spmv_pool);
  Check(BitwiseEqual(y_serial, y_pool), "SpMV pooled != serial");

  const auto [gs_serial, gs_pool] =
      PairedBestMs([&] { hpcg::SymGSColored(geo, x, z_serial); },
                   [&] { hpcg::SymGSColored(geo, x, z_pool, &pool); }, kReps);
  Report("SymGSColored 64^3", gs_serial, gs_pool);
  Check(BitwiseEqual(z_serial, z_pool), "SymGSColored pooled != serial");

  const auto big = RandomVec(1 << 22, 2);
  double dot_s = 0.0, dot_p = 0.0;
  const auto [dot_serial, dot_pool] =
      PairedBestMs([&] { dot_s = hpcg::Dot(big, big); },
                   [&] { dot_p = hpcg::Dot(big, big, &pool); }, kReps);
  Report("Dot 4M", dot_serial, dot_pool);
  Check(dot_s == dot_p, "Dot pooled != serial (bitwise)");

  // The headline speedup is the combined kernel workload (best-of reps).
  return (spmv_serial + gs_serial + dot_serial) /
         (spmv_pool + gs_pool + dot_pool);
}

// ---------------------------------------------------------- forest training

void BenchForest(ThreadPool& pool) {
  ml::Dataset data;
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    const double a = rng.Uniform(0.0, 4.0);
    const double b = rng.Uniform(-1.0, 1.0);
    const double c = rng.Uniform(0.0, 1.0);
    data.Add({a, b, c}, a * a - 2.0 * b + 0.5 * c + rng.Uniform(-0.05, 0.05));
  }
  ml::ForestParams params;
  params.trees = 48;
  params.seed = 7;

  ml::RandomForest serial(params), pooled(params);
  const double serial_ms = TimeMs([&] { (void)serial.Fit(data); }, 3);
  const double pool_ms = TimeMs([&] { (void)pooled.Fit(data, &pool); }, 3);
  Report("RandomForest 48 trees", serial_ms, pool_ms);
  Check(serial.ToJson().Dump() == pooled.ToJson().Dump(),
        "forest pooled != serial (JSON)");
  Check(serial.oob_r_squared() == pooled.oob_r_squared(),
        "forest OOB R^2 pooled != serial");
}

// ------------------------------------------------------------ Chronus sweep

// Reentrant compute-bound runner: a deterministic function of the
// configuration only, so concurrent sweeps are safe and comparable.
class SpinRunner : public chronus::ApplicationRunnerInterface {
 public:
  [[nodiscard]] std::string application() const override { return "hpcg"; }
  [[nodiscard]] std::string binary_hash() const override { return "cafe"; }
  [[nodiscard]] int max_concurrency() const override { return 4; }
  Result<chronus::RunResult> Run(const chronus::Configuration& c) override {
    double acc = 0.0;
    for (int i = 1; i <= 200'000; ++i) {
      acc += std::sin(static_cast<double>(i % 1000) * 1e-3 * c.cores);
    }
    chronus::RunResult r;
    r.gflops = 0.1 * c.cores + 1e-12 * acc;
    r.duration_s = 100.0 / c.cores;
    r.avg_system_watts = 50.0 + 2.0 * c.cores;
    r.avg_cpu_watts = 30.0 + 1.5 * c.cores;
    r.power_samples = 10;
    return r;
  }
};

void BenchSweep(ThreadPool& pool) {
  std::vector<chronus::Configuration> sweep;
  for (int cores = 1; cores <= 32; ++cores) {
    sweep.push_back({cores, 1, kHz(2'200'000)});
  }

  const auto run_sweep = [&](ThreadPool* p) {
    auto env = chronus::MakeSimEnv({});
    chronus::BenchmarkService service(
        env.repository, std::make_shared<SpinRunner>(), env.system_info, p);
    return service.Run(sweep);
  };

  Result<std::vector<chronus::BenchmarkRecord>> serial =
      Result<std::vector<chronus::BenchmarkRecord>>::Error("not run");
  Result<std::vector<chronus::BenchmarkRecord>> pooled = serial;
  const double serial_ms = TimeMs([&] { serial = run_sweep(nullptr); }, 1);
  const double pool_ms = TimeMs([&] { pooled = run_sweep(&pool); }, 1);
  Report("Chronus sweep 32 cfgs", serial_ms, pool_ms);

  Check(serial.ok() && pooled.ok(), "sweep failed");
  if (serial.ok() && pooled.ok()) {
    Check(serial->size() == pooled->size(), "sweep record count differs");
    for (std::size_t i = 0; i < serial->size() && i < pooled->size(); ++i) {
      Check((*serial)[i].config == (*pooled)[i].config &&
                (*serial)[i].gflops == (*pooled)[i].gflops &&
                (*serial)[i].id == (*pooled)[i].id,
            "sweep record " + std::to_string(i) + " differs");
    }
  }
}

}  // namespace

int main() {
  Logger::Instance().SetLevel(LogLevel::kWarn);  // quiet the sweep
  const unsigned hw = std::thread::hardware_concurrency();
  ThreadPool pool(4);
  std::printf("hardware threads: %u, pool size: %d\n\n", hw, pool.size());

  const double kernel_speedup = BenchKernels(pool);
  BenchForest(pool);
  BenchSweep(pool);

  std::printf("\nkernel workload speedup: %.2fx\n", kernel_speedup);
  if (hw >= 4) {
    Check(kernel_speedup >= 2.0,
          "expected >= 2x kernel speedup on a 4-thread pool");
  } else {
    std::printf(
        "NOTE: %u hardware thread(s) < 4 — speedup assertion skipped "
        "(equivalence still enforced)\n",
        hw);
  }

  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
