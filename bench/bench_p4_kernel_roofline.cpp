// P4 — kernel roofline for the branch-free HPCG compute core: per-kernel
// GFLOPS and arithmetic intensity (bytes/flop, streaming model) across pool
// sizes, plus the claims the PR makes, checked rather than just printed:
//
//  - Equivalence (always): every optimized kernel must match its reference
//    oracle (`ref::`) or its unfused composition bit-for-bit. Any mismatch
//    exits non-zero.
//  - Speedup (skippable with --no-speedup-check for noisy smoke machines):
//    the branch-free SpMV and SymGS must beat the fully guarded reference
//    kernels by >= 2x single-threaded on the default 64^3 grid, using
//    best-of-reps timings so scheduler noise cannot fail the gate.
//  - Telemetry: with an attached registry the hpcg_kernel counters must
//    move; detached, kernel timings must stay within the PR-4 overhead
//    noise bound.
//  - ISA tiers: every tier this machine supports is forced in turn
//    (ForceIsaTier) and measured in this one process, emitting
//    <kernel>_gflops_<tier>_p0 keys plus a tiers_measured list so the
//    baseline checker can key floors by tier. Each tier must be bitwise
//    run-to-run deterministic and pool-size invariant; scalar/sse2 must
//    stay bitwise identical to ref::. On AVX2-capable hardware the avx2
//    tier must beat sse2 by >= 1.3x on SpMV and SymGS (interleaved
//    best-of-reps, same gate discipline as the ref speedup check; also
//    skippable with --no-speedup-check).
//
// The headline numbers land in BENCH_p4_kernel_roofline.json (BenchReport),
// which CI diffs against bench/baselines/BENCH_p4_baseline.json via
// tools/check_perf_baseline.py. --write-baseline PATH dumps the artifact
// body to PATH for refreshing that committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/thread_pool.hpp"
#include "hpcg/dispatch.hpp"
#include "hpcg/geometry.hpp"
#include "hpcg/kernel_telemetry.hpp"
#include "hpcg/stencil.hpp"
#include "hpcg/vector_ops.hpp"

namespace {

using namespace eco;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

// Per-rep wall times in ms; callers pick median (stable rating) or min
// (speedup gate — best-of-reps is the noise-immune estimator of the true
// kernel cost on a shared machine).
template <typename Fn>
std::vector<double> TimeReps(Fn&& fn, int repeats) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return ms;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
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

struct KernelRow {
  const char* name;      // metric key prefix + table label
  std::uint64_t flops;   // per invocation
  std::uint64_t bytes;   // streaming-model traffic per invocation
  bool serial_only;      // SymGS has no pooled path
};

// Streaming (compulsory-traffic) roofline model: each vector operand is
// counted once per sweep at 8 bytes/point; stencil neighbour reuse is
// assumed cached. This is the model the DESIGN.md roofline section plots
// the measured GFLOPS against.
std::vector<KernelRow> KernelTable(const hpcg::Geometry& geo) {
  const auto n = static_cast<std::uint64_t>(geo.size());
  const std::uint64_t nnz = hpcg::NonZeros(geo);
  return {
      // SpMV: read x, write y.
      {"spmv", 2 * nnz, 16 * n, false},
      // Fused p'Ap: same traffic as SpMV (the dot rides in registers).
      {"spmv_dot", 2 * nnz + 2 * n, 16 * n, false},
      // Fused r - A x: read x, read r, write out.
      {"spmv_residual", 2 * nnz + n, 24 * n, false},
      // Forward+backward sweep: read r, read+write z, twice.
      {"symgs", 4 * nnz, 48 * n, true},
      {"symgs_colored", 4 * nnz, 48 * n, false},
      // BLAS-1: dot reads two vectors; waxpby reads two, writes one.
      {"dot", 2 * n, 16 * n, false},
      {"waxpby", 3 * n, 24 * n, false},
      // Fused waxpby+dot: the norm rides in registers, traffic of waxpby.
      {"waxpby_dot", 5 * n, 24 * n, false},
  };
}

void ReportRow(const char* name, int pool_size, double ms, double gflops,
               double bytes_per_flop) {
  std::printf("%-16s pool %2d   %9.3f ms   %7.3f GFLOP/s   %5.2f B/flop\n",
              name, pool_size, ms, gflops, bytes_per_flop);
}

// ------------------------------------------------------- equivalence checks

void EquivalenceChecks(const hpcg::Geometry& geo, ThreadPool* pool) {
  const auto x = RandomVec(geo.size(), 11);
  const auto r = RandomVec(geo.size(), 12);
  hpcg::Vec a(x.size()), b(x.size());

  hpcg::ref::SpMV(geo, x, a);
  hpcg::SpMV(geo, x, b, pool);
  Check(BitwiseEqual(a, b), "SpMV != ref::SpMV (bitwise)");

  double fused_dot = 0.0;
  hpcg::SpMVDot(geo, x, b, &fused_dot, pool);
  Check(BitwiseEqual(a, b), "SpMVDot vector != ref::SpMV (bitwise)");
  Check(fused_dot == hpcg::Dot(x, a), "SpMVDot dot != unfused Dot (bitwise)");

  hpcg::Vec res_fused(x.size()), res_unfused(x.size());
  hpcg::SpMVResidual(geo, x, r, res_fused, pool);
  for (std::size_t i = 0; i < res_unfused.size(); ++i) {
    res_unfused[i] = r[i] - a[i];
  }
  Check(BitwiseEqual(res_fused, res_unfused),
        "SpMVResidual != r - ref::SpMV (bitwise)");

  hpcg::Vec za = RandomVec(geo.size(), 13), zb = za;
  hpcg::ref::SymGS(geo, r, za);
  hpcg::SymGS(geo, r, zb);
  Check(BitwiseEqual(za, zb), "SymGS != ref::SymGS (bitwise)");

  za = RandomVec(geo.size(), 14);
  zb = za;
  hpcg::ref::SymGSColored(geo, r, za);
  hpcg::SymGSColored(geo, r, zb, pool);
  Check(BitwiseEqual(za, zb), "SymGSColored != ref::SymGSColored (bitwise)");

  hpcg::Vec wa(x.size()), wb(x.size());
  const double norm_fused = hpcg::FusedWaxpbyDot(1.0, x, -0.5, r, wa, pool);
  hpcg::Waxpby(1.0, x, -0.5, r, wb, pool);
  Check(BitwiseEqual(wa, wb), "FusedWaxpbyDot vector != Waxpby (bitwise)");
  Check(norm_fused == hpcg::Dot(wb, wb),
        "FusedWaxpbyDot norm != unfused Dot (bitwise)");

  Check(hpcg::NonZeros(geo) == hpcg::ref::NonZeros(geo),
        "closed-form NonZeros != reference loop");
}

// ------------------------------------------------------------ speedup gate

void SpeedupGate(const hpcg::Geometry& geo, int reps,
                 eco::bench::BenchReport& report) {
  const auto x = RandomVec(geo.size(), 21);
  const auto r = RandomVec(geo.size(), 22);
  hpcg::Vec y(x.size());
  hpcg::Vec z(x.size(), 0.0);

  // Interleave ref/opt reps so a load spike hits both sides equally, and
  // take best-of-many: on a shared box the min over interleaved pairs is
  // the only stable estimator of the true kernel-to-kernel ratio.
  const int gate_reps = std::max(reps, 15);
  const auto paired_min = [&](auto&& ref_fn, auto&& opt_fn) {
    double ref_ms = 1e300, opt_ms = 1e300;
    for (int i = 0; i < gate_reps; ++i) {
      ref_ms = std::min(ref_ms, TimeReps(ref_fn, 1)[0]);
      opt_ms = std::min(opt_ms, TimeReps(opt_fn, 1)[0]);
    }
    return std::pair<double, double>(ref_ms, opt_ms);
  };

  const auto [ref_spmv, opt_spmv] = paired_min(
      [&] { hpcg::ref::SpMV(geo, x, y); }, [&] { hpcg::SpMV(geo, x, y); });
  const double spmv_speedup = ref_spmv / std::max(opt_spmv, 1e-9);

  const auto [ref_gs, opt_gs] = paired_min(
      [&] { hpcg::ref::SymGS(geo, r, z); }, [&] { hpcg::SymGS(geo, r, z); });
  const double gs_speedup = ref_gs / std::max(opt_gs, 1e-9);

  std::printf(
      "\nspeedup vs guarded reference (best of %d, serial):\n"
      "  SpMV  %7.3f -> %7.3f ms  %5.2fx\n"
      "  SymGS %7.3f -> %7.3f ms  %5.2fx\n",
      gate_reps, ref_spmv, opt_spmv, spmv_speedup, ref_gs, opt_gs, gs_speedup);
  report.Set("spmv_speedup_vs_ref", spmv_speedup);
  report.Set("symgs_speedup_vs_ref", gs_speedup);

  Check(spmv_speedup >= 2.0, "expected >= 2x SpMV speedup over ref::SpMV");
  Check(gs_speedup >= 2.0, "expected >= 2x SymGS speedup over ref::SymGS");
}

// -------------------------------------------------------------- ISA tiers

// Determinism contract, checked per tier on full-mantissa random data:
// run-to-run bitwise, pool-size invariant (serial vs 4-worker pool), the
// fused SpMVDot vector bitwise equal to plain SpMV, and the narrow tiers
// (scalar, sse2) bitwise equal to the ref:: oracle. The wide tiers carry
// their own fixed association (window SpMV, Hsum27 + reciprocal relax), so
// ref-equality is only asserted where the contract promises it.
void TierDeterminismChecks(const hpcg::Geometry& geo, hpcg::IsaTier tier) {
  const std::string t = hpcg::IsaTierName(tier);
  const auto x = RandomVec(geo.size(), 41);
  const auto r = RandomVec(geo.size(), 42);
  ThreadPool pool(4);

  hpcg::Vec a(x.size()), b(x.size());
  hpcg::SpMV(geo, x, a);
  hpcg::SpMV(geo, x, b);
  Check(BitwiseEqual(a, b), t + ": SpMV not run-to-run deterministic");
  hpcg::SpMV(geo, x, b, &pool);
  Check(BitwiseEqual(a, b), t + ": SpMV not pool-size invariant");

  double dot_serial = 0.0, dot_pooled = 0.0;
  hpcg::SpMVDot(geo, x, b, &dot_serial);
  Check(BitwiseEqual(a, b), t + ": SpMVDot vector != SpMV vector");
  hpcg::SpMVDot(geo, x, b, &dot_pooled, &pool);
  Check(dot_serial == dot_pooled, t + ": SpMVDot not pool-size invariant");

  hpcg::Vec za = RandomVec(geo.size(), 43), zb = za;
  hpcg::SymGS(geo, r, za);
  hpcg::SymGS(geo, r, zb);
  Check(BitwiseEqual(za, zb), t + ": SymGS not run-to-run deterministic");

  hpcg::Vec ca = RandomVec(geo.size(), 44), cb = ca;
  hpcg::SymGSColored(geo, r, ca);
  hpcg::SymGSColored(geo, r, cb, &pool);
  Check(BitwiseEqual(ca, cb), t + ": SymGSColored not pool-size invariant");

  if (tier <= hpcg::kDefaultIsaTier) {
    hpcg::Vec yref(x.size());
    hpcg::ref::SpMV(geo, x, yref);
    Check(BitwiseEqual(a, yref), t + ": SpMV != ref::SpMV (bitwise)");
    hpcg::Vec zref = RandomVec(geo.size(), 43);
    hpcg::ref::SymGS(geo, r, zref);
    Check(BitwiseEqual(za, zref), t + ": SymGS != ref::SymGS (bitwise)");
  }
}

// Forces each supported tier in turn and measures the whole kernel table
// serially, so one artifact carries the per-tier roofline. Keys:
// <kernel>_gflops_<tier>_p0. The default-tier rows above keep their
// unsuffixed keys, so existing baselines stay comparable.
void TierSweep(const hpcg::Geometry& geo, int reps,
               eco::bench::BenchReport& report, bool speedup_check) {
  const hpcg::IsaTier prior = hpcg::ActiveIsaTier();
  const auto x = RandomVec(geo.size(), 1);
  const auto r = RandomVec(geo.size(), 2);
  hpcg::Vec y(x.size());
  hpcg::Vec z(x.size(), 0.0);
  hpcg::Vec w(x.size());
  double scalar = 0.0;
  const auto rows = KernelTable(geo);

  std::string tiers_csv;
  std::printf("\nper-tier roofline (forced via ForceIsaTier, serial):\n");
  for (int i = 0; i < hpcg::kIsaTierCount; ++i) {
    const auto tier = static_cast<hpcg::IsaTier>(i);
    if (!hpcg::IsaTierSupported(tier)) continue;
    const hpcg::IsaTier got = hpcg::ForceIsaTier(tier);
    Check(got == tier, std::string("ForceIsaTier(") + hpcg::IsaTierName(tier) +
                           ") clamped on a machine that supports it");
    if (!tiers_csv.empty()) tiers_csv += ',';
    tiers_csv += hpcg::IsaTierName(tier);

    for (const KernelRow& row : rows) {
      const auto run = [&]() {
        if (std::strcmp(row.name, "spmv") == 0) {
          hpcg::SpMV(geo, x, y);
        } else if (std::strcmp(row.name, "spmv_dot") == 0) {
          hpcg::SpMVDot(geo, x, y, &scalar);
        } else if (std::strcmp(row.name, "spmv_residual") == 0) {
          hpcg::SpMVResidual(geo, x, r, w);
        } else if (std::strcmp(row.name, "symgs") == 0) {
          hpcg::SymGS(geo, r, z);
        } else if (std::strcmp(row.name, "symgs_colored") == 0) {
          hpcg::SymGSColored(geo, r, z);
        } else if (std::strcmp(row.name, "dot") == 0) {
          scalar = hpcg::Dot(x, r);
        } else if (std::strcmp(row.name, "waxpby") == 0) {
          hpcg::Waxpby(1.0, x, -0.5, r, w);
        } else {
          scalar = hpcg::FusedWaxpbyDot(1.0, x, -0.5, r, w);
        }
      };
      run();  // warm-up under the new tier
      const double ms = Median(TimeReps(run, reps));
      const double gflops = static_cast<double>(row.flops) / (ms * 1e6);
      std::printf("  %-8s %-16s %9.3f ms   %7.3f GFLOP/s\n",
                  hpcg::IsaTierName(tier), row.name, ms, gflops);
      report.Set(std::string(row.name) + "_gflops_" +
                     hpcg::IsaTierName(tier) + "_p0",
                 gflops);
    }
    TierDeterminismChecks(geo, tier);
  }
  report.Set("tiers_measured", tiers_csv);
  report.Set("isa_tier_best", hpcg::IsaTierName(hpcg::BestSupportedIsaTier()));

  // The tier gate: avx2 must beat sse2 by >= 1.3x on SpMV and SymGS.
  // Interleaved best-of pairs — A/B/A/B so a load spike on this shared box
  // hits both tiers equally and the min/min ratio stays stable.
  if (speedup_check && hpcg::IsaTierSupported(hpcg::IsaTier::kAvx2)) {
    const int gate_reps = std::max(reps * 2, 21);
    const auto paired_min = [&](auto&& fn) {
      double sse2_ms = 1e300, avx2_ms = 1e300;
      for (int i = 0; i < gate_reps; ++i) {
        hpcg::ForceIsaTier(hpcg::IsaTier::kSse2);
        sse2_ms = std::min(sse2_ms, TimeReps(fn, 1)[0]);
        hpcg::ForceIsaTier(hpcg::IsaTier::kAvx2);
        avx2_ms = std::min(avx2_ms, TimeReps(fn, 1)[0]);
      }
      return std::pair<double, double>(sse2_ms, avx2_ms);
    };
    const auto [spmv_sse2, spmv_avx2] =
        paired_min([&] { hpcg::SpMV(geo, x, y); });
    const auto [gs_sse2, gs_avx2] = paired_min([&] { hpcg::SymGS(geo, r, z); });
    const double spmv_ratio = spmv_sse2 / std::max(spmv_avx2, 1e-9);
    const double gs_ratio = gs_sse2 / std::max(gs_avx2, 1e-9);
    std::printf(
        "\navx2 vs sse2 (best of %d interleaved, serial):\n"
        "  SpMV  %7.3f -> %7.3f ms  %5.2fx\n"
        "  SymGS %7.3f -> %7.3f ms  %5.2fx\n",
        gate_reps, spmv_sse2, spmv_avx2, spmv_ratio, gs_sse2, gs_avx2,
        gs_ratio);
    report.Set("spmv_avx2_vs_sse2", spmv_ratio);
    report.Set("symgs_avx2_vs_sse2", gs_ratio);
    Check(spmv_ratio >= 1.3, "expected avx2 SpMV >= 1.3x over sse2");
    Check(gs_ratio >= 1.3, "expected avx2 SymGS >= 1.3x over sse2");
  } else if (hpcg::IsaTierSupported(hpcg::IsaTier::kAvx2)) {
    std::printf("\n(avx2-vs-sse2 gate skipped: --no-speedup-check)\n");
  } else {
    std::printf("\n(avx2-vs-sse2 gate skipped: avx2 unsupported here)\n");
  }

  hpcg::ForceIsaTier(prior);
}

// -------------------------------------------------------------- telemetry

void TelemetryChecks(const hpcg::Geometry& geo, int reps) {
  const auto x = RandomVec(geo.size(), 31);
  hpcg::Vec y(x.size());

  // Detached-overhead gate: kernels with no registry attached must stay
  // within the PR-4 noise bound of themselves (the KernelScope costs one
  // acquire load). Median-of-reps on both sides.
  const double base = Median(TimeReps([&] { hpcg::SpMV(geo, x, y); },
                                      std::max(3, reps)));
  telemetry::MetricsRegistry registry;
  hpcg::SetKernelTelemetry(&registry);
  const double attached = Median(TimeReps([&] { hpcg::SpMV(geo, x, y); },
                                          std::max(3, reps)));

  double dot = 0.0;
  hpcg::SpMVDot(geo, x, y, &dot);
  hpcg::Vec z(x.size(), 0.0);
  hpcg::SymGS(geo, x, z);
  hpcg::SetKernelTelemetry(nullptr);
  const double detached = Median(TimeReps([&] { hpcg::SpMV(geo, x, y); },
                                          std::max(3, reps)));

  const auto counter = [&](const char* kernel) -> std::uint64_t {
    const telemetry::Counter* c = registry.FindCounter(telemetry::LabeledName(
        "eco_hpcg_kernel_calls_total", "kernel", kernel));
    return c != nullptr ? c->Value() : 0;
  };
  Check(counter("spmv") >= 1, "attached telemetry: spmv calls did not move");
  Check(counter("spmv_dot") == 1,
        "attached telemetry: spmv_dot calls != 1");
  Check(counter("symgs") == 1, "attached telemetry: symgs calls != 1");

  std::printf(
      "\ntelemetry: detached %.3f ms, attached %.3f ms, re-detached %.3f ms\n",
      base, attached, detached);
  Check(detached <= base * 1.25 + 0.05,
        "detached-telemetry SpMV exceeded noise bound vs baseline");
}

}  // namespace

int main(int argc, char** argv) {
  int grid = 64;
  int reps = 9;
  std::string pools_arg = "0,4";
  bool speedup_check = true;
  std::string baseline_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--pools") == 0 && i + 1 < argc) {
      pools_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--no-speedup-check") == 0) {
      speedup_check = false;
    } else if (std::strcmp(argv[i], "--write-baseline") == 0 && i + 1 < argc) {
      baseline_out = argv[++i];
    } else {
      std::printf(
          "usage: %s [--grid N] [--reps N] [--pools 0,4,...] "
          "[--no-speedup-check] [--write-baseline PATH]\n",
          argv[0]);
      return 2;
    }
  }
  Logger::Instance().SetLevel(LogLevel::kWarn);

  std::vector<int> pool_sizes;
  for (std::size_t pos = 0; pos < pools_arg.size();) {
    const std::size_t comma = pools_arg.find(',', pos);
    pool_sizes.push_back(std::atoi(
        pools_arg.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (pool_sizes.empty()) pool_sizes.push_back(0);

  const hpcg::Geometry geo{grid, grid, grid};
  eco::bench::BenchReport report("p4_kernel_roofline");
  report.Set("grid", static_cast<std::uint64_t>(grid));
  report.Set("reps", static_cast<std::uint64_t>(reps));
  report.Set("nonzeros", hpcg::NonZeros(geo));
  std::printf("kernel roofline: grid %d^3 (%lld pts), %d reps (median)\n\n",
              grid, static_cast<long long>(geo.size()), reps);

  const auto x = RandomVec(geo.size(), 1);
  const auto r = RandomVec(geo.size(), 2);
  hpcg::Vec y(x.size());
  hpcg::Vec z(x.size(), 0.0);
  hpcg::Vec w(x.size());
  double scalar = 0.0;

  const auto rows = KernelTable(geo);
  for (const int pool_size : pool_sizes) {
    // Pool size 0 = serial path (no pool object at all).
    ThreadPool pool(std::max(pool_size, 1));
    ThreadPool* p = pool_size > 0 ? &pool : nullptr;
    for (const KernelRow& row : rows) {
      if (row.serial_only && pool_size > 0) continue;
      const auto run = [&]() {
        if (std::strcmp(row.name, "spmv") == 0) {
          hpcg::SpMV(geo, x, y, p);
        } else if (std::strcmp(row.name, "spmv_dot") == 0) {
          hpcg::SpMVDot(geo, x, y, &scalar, p);
        } else if (std::strcmp(row.name, "spmv_residual") == 0) {
          hpcg::SpMVResidual(geo, x, r, w, p);
        } else if (std::strcmp(row.name, "symgs") == 0) {
          hpcg::SymGS(geo, r, z);
        } else if (std::strcmp(row.name, "symgs_colored") == 0) {
          hpcg::SymGSColored(geo, r, z, p);
        } else if (std::strcmp(row.name, "dot") == 0) {
          scalar = hpcg::Dot(x, r, p);
        } else if (std::strcmp(row.name, "waxpby") == 0) {
          hpcg::Waxpby(1.0, x, -0.5, r, w, p);
        } else {
          scalar = hpcg::FusedWaxpbyDot(1.0, x, -0.5, r, w, p);
        }
      };
      run();  // warm-up (first touch, pool spin-up)
      const double ms = Median(TimeReps(run, reps));
      const double gflops =
          static_cast<double>(row.flops) / (ms * 1e6);
      const double bpf =
          static_cast<double>(row.bytes) / static_cast<double>(row.flops);
      ReportRow(row.name, pool_size, ms, gflops, bpf);
      const std::string key =
          std::string(row.name) + "_gflops_p" + std::to_string(pool_size);
      report.Set(key, gflops);
      if (pool_size == pool_sizes.front()) {
        report.Set(std::string(row.name) + "_bytes_per_flop", bpf);
      }
    }
    std::printf("\n");
  }

  {
    ThreadPool pool(4);
    EquivalenceChecks(geo, &pool);
  }
  EquivalenceChecks(geo, nullptr);
  if (speedup_check) {
    SpeedupGate(geo, reps, report);
  } else {
    std::printf("\n(speedup gate skipped: --no-speedup-check)\n");
  }
  TierSweep(geo, reps, report, speedup_check);
  TelemetryChecks(geo, reps);

  const std::string path = report.Write();
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
  if (!baseline_out.empty()) {
    // Dump the artifact body verbatim; scale it down (headroom) before
    // committing as bench/baselines/BENCH_p4_baseline.json.
    std::FILE* f = std::fopen(baseline_out.c_str(), "w");
    if (f != nullptr) {
      const std::string body = report.ToJson().Dump(2);
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("baseline dump: %s\n", baseline_out.c_str());
    } else {
      Check(false, "could not open --write-baseline path");
    }
  }

  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
