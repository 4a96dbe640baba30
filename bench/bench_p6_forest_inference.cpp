// P6 — compiled forest inference: the flattened SoA engine
// (ml/forest_inference) against the pointer-walk RandomForest::Predict it
// replaces, on the workloads the eco plugin actually runs. The PR's claims
// are checked, not just printed:
//
//  - Equivalence (always): at every supported ISA tier (forced in turn via
//    hpcg::ForceIsaTier) and at batch sizes 1/7/64/1000, BatchPredict must
//    be bitwise identical to the pointer-walk oracle. Any mismatch exits
//    non-zero.
//  - Speedup gate (skippable with --no-speedup-check): the batched sweep
//    over --candidates rows of a --trees forest must beat the per-candidate
//    pointer walk by >= 4x at the engine's production dispatch tier (widest
//    supported unless ECO_FORCE_ISA pins one — the branchy pointer walk
//    rides the branch predictor, so the 4x claim is a SIMD claim and the
//    gate self-disarms when the engine is pinned below avx2, e.g. in the
//    isa-matrix CI job). Interleaved best-of-reps, so a load spike hits
//    both sides equally; the ratio is measured on one core against itself,
//    which keeps it stable even on shared runners — the gate stays armed in
//    CI smoke.
//  - Telemetry: eco_ml_inference_{compiles,batches,rows}_total must move.
//
// Scenarios and artifact keys (BENCH_p6_forest_inference.json, gated by CI
// against bench/baselines/BENCH_p6_baseline.json via
// tools/check_perf_baseline.py, floors keyed per tier and skipped when the
// runner cannot execute that tier):
//
//  - candidate sweep  (--candidates rows, one BatchPredict):
//      sweep_mrows_per_s_<tier>, naive_sweep_ms, batched_sweep_ms,
//      sweep_speedup_vs_naive
//  - pairwise matrix  (--apps^2 rows — the colocation roadmap item's
//      O(n^2) degradation grid): pairwise_mrows_per_s_<tier>
//  - single row       (the submit-path latency): singlerow_ns_<tier>
//  - model round trip (the model blob's storage path: ModelFactory::Pack ->
//      Dump(2) at fit, Parse -> Unpack at load; tier-neutral):
//      roundtrip_mb_per_s (blob MB over the median round trip),
//      roundtrip_blob_bytes. The round trip must be a Dump fixed point.
//
// --write-baseline PATH dumps the artifact body for refreshing the
// committed baseline (scale throughput floors by ~0.5 for runner headroom).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chronus/optimizers.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "hpcg/dispatch.hpp"
#include "ml/dataset.hpp"
#include "ml/forest_inference.hpp"
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

// The surface the optimizer models in production: GFLOPS/W over
// (cores, threads_per_core, GHz), with measurement noise.
ml::Dataset EfficiencyDataset(int rows, std::uint64_t seed) {
  ml::Dataset data;
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const double cores = std::floor(rng.Uniform(1.0, 33.0));
    const double tpc = rng.Uniform(0.0, 1.0) < 0.5 ? 1.0 : 2.0;
    const double ghz = rng.Uniform(1.5, 2.5);
    const double gflops = cores * 0.9 * (tpc > 1.5 ? 1.15 : 1.0) * ghz;
    const double watts = 100.0 + 3.0 * cores * ghz;
    data.Add({cores, tpc, ghz}, gflops / watts + rng.Uniform(-0.005, 0.005));
  }
  return data;
}

std::vector<double> RandomMatrix(std::int64_t rows, std::uint64_t seed) {
  std::vector<double> m(static_cast<std::size_t>(rows) * 3);
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); i += 3) {
    m[i] = std::floor(rng.Uniform(1.0, 33.0));
    m[i + 1] = rng.Uniform(0.0, 1.0) < 0.5 ? 1.0 : 2.0;
    m[i + 2] = rng.Uniform(1.5, 2.5);
  }
  return m;
}

// Pointer-walk oracle over a row-major matrix — exactly what every caller
// did before the engine: one features vector, one Predict per candidate.
void NaiveSweep(const ml::RandomForest& forest, const std::vector<double>& m,
                std::int64_t rows, std::vector<double>* out) {
  std::vector<double> features(3);
  for (std::int64_t i = 0; i < rows; ++i) {
    const double* r = m.data() + i * 3;
    features.assign(r, r + 3);
    (*out)[static_cast<std::size_t>(i)] = forest.Predict(features);
  }
}

void BitwiseChecks(const ml::RandomForest& forest,
                   const ml::CompiledForest& compiled) {
  std::printf("\nequivalence (bitwise vs pointer walk, per tier):\n");
  const hpcg::IsaTier prior = hpcg::ActiveIsaTier();
  for (int i = 0; i < hpcg::kIsaTierCount; ++i) {
    const auto tier = static_cast<hpcg::IsaTier>(i);
    if (!hpcg::IsaTierSupported(tier)) continue;
    hpcg::ForceIsaTier(tier);
    for (const std::int64_t n : {1, 7, 64, 1000}) {
      const auto m = RandomMatrix(n, 90 + static_cast<std::uint64_t>(n));
      std::vector<double> batched(static_cast<std::size_t>(n));
      std::vector<double> naive(static_cast<std::size_t>(n));
      Check(compiled.BatchPredict(m.data(), n, 3, batched.data()).ok(),
            "BatchPredict failed");
      NaiveSweep(forest, m, n, &naive);
      bool same = true;
      for (std::size_t r = 0; r < naive.size(); ++r) {
        same = same && std::memcmp(&batched[r], &naive[r], sizeof(double)) == 0;
      }
      Check(same, std::string(hpcg::IsaTierName(tier)) + " batch " +
                      std::to_string(n) + ": not bitwise equal to Predict");
    }
    std::printf("  %-8s batches 1/7/64/1000 bitwise ok\n",
                hpcg::IsaTierName(tier));
  }
  hpcg::ForceIsaTier(prior);
}

}  // namespace

int main(int argc, char** argv) {
  int trees = 50;
  int candidates = 1000;
  int apps = 40;
  int reps = 9;
  bool speedup_check = true;
  std::string baseline_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trees") == 0 && i + 1 < argc) {
      trees = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--candidates") == 0 && i + 1 < argc) {
      candidates = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--apps") == 0 && i + 1 < argc) {
      apps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-speedup-check") == 0) {
      speedup_check = false;
    } else if (std::strcmp(argv[i], "--write-baseline") == 0 && i + 1 < argc) {
      baseline_out = argv[++i];
    } else {
      std::printf(
          "usage: %s [--trees N] [--candidates N] [--apps N] [--reps N] "
          "[--no-speedup-check] [--write-baseline PATH]\n",
          argv[0]);
      return 2;
    }
  }
  Logger::Instance().SetLevel(LogLevel::kWarn);

  ml::ForestParams params;
  params.trees = trees;
  ml::RandomForest forest(params);
  if (!forest.Fit(EfficiencyDataset(2000, 1)).ok()) {
    std::printf("FAIL  forest fit failed\n");
    return 1;
  }
  auto compiled = ml::CompiledForest::Compile(forest);
  if (!compiled.ok()) {
    std::printf("FAIL  compile failed: %s\n", compiled.message().c_str());
    return 1;
  }

  eco::bench::BenchReport report("p6_forest_inference");
  report.Set("trees", static_cast<std::uint64_t>(trees));
  report.Set("candidates", static_cast<std::uint64_t>(candidates));
  report.Set("nodes", static_cast<std::uint64_t>(compiled->node_count()));
  std::printf(
      "forest inference: %d trees, %zu nodes, max depth %d, %d reps "
      "(median)\n",
      trees, compiled->node_count(), compiled->max_depth(), reps);

  const auto sweep = RandomMatrix(candidates, 2);
  const auto pairwise =
      RandomMatrix(static_cast<std::int64_t>(apps) * apps, 3);
  std::vector<double> out(std::max<std::size_t>(
      sweep.size() / 3, pairwise.size() / 3));

  // Telemetry floor: counters must move when the engine runs.
  const auto& global = telemetry::MetricsRegistry::Global();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const telemetry::Counter* c = global.FindCounter(name);
    return c != nullptr ? c->Value() : 0;
  };
  const std::uint64_t batches_before =
      counter("eco_ml_inference_batches_total");

  // The headline gate FIRST, in the process's natural dispatch state —
  // exactly what the plugin sees in production: unpinned, the engine
  // dispatches the widest supported tier (every tier is bitwise identical,
  // so the upgrade is free); ECO_FORCE_ISA pins it. Batched sweep vs
  // per-candidate pointer walk, interleaved best-of-reps (A/B/A/B), min/min.
  {
    const hpcg::IsaTier engine_tier = hpcg::IsaTierPinned()
                                          ? hpcg::ActiveIsaTier()
                                          : hpcg::BestSupportedIsaTier();
    const char* gate_tier = hpcg::IsaTierName(engine_tier);
    const int gate_reps = std::max(reps, 15);
    double naive_ms = 1e300, batched_ms = 1e300;
    std::vector<double> naive_out(static_cast<std::size_t>(candidates));
    for (int i = 0; i < gate_reps; ++i) {
      naive_ms = std::min(
          naive_ms,
          TimeReps([&] { NaiveSweep(forest, sweep, candidates, &naive_out); },
                   1)[0]);
      batched_ms = std::min(
          batched_ms,
          TimeReps(
              [&] {
                compiled->BatchPredict(sweep.data(), candidates, 3,
                                       out.data());
              },
              1)[0]);
    }
    const double speedup = naive_ms / std::max(batched_ms, 1e-9);
    std::printf(
        "\nbatched sweep vs pointer walk (%d candidates, engine tier %s, "
        "best of %d):\n"
        "  naive %8.3f ms   batched %8.3f ms   %5.2fx\n",
        candidates, gate_tier, gate_reps, naive_ms, batched_ms, speedup);
    report.Set("gate_tier", std::string(gate_tier));
    report.Set("naive_sweep_ms", naive_ms);
    report.Set("batched_sweep_ms", batched_ms);
    report.Set("sweep_speedup_vs_naive", speedup);
    if (!speedup_check) {
      std::printf("(speedup gate skipped: --no-speedup-check)\n");
    } else if (engine_tier < hpcg::IsaTier::kAvx2) {
      std::printf("(speedup gate skipped: engine pinned to %s, 4x is a "
                  "SIMD-tier claim)\n",
                  gate_tier);
    } else {
      Check(speedup >= 4.0,
            "expected >= 4x batched sweep over per-candidate Predict");
    }
  }

  // Per-tier throughput: the candidate sweep, the pairwise degradation
  // matrix, and the submit-path single row.
  const hpcg::IsaTier prior = hpcg::ActiveIsaTier();
  std::string tiers_csv;
  std::printf("\nper-tier throughput (forced via ForceIsaTier):\n");
  for (int i = 0; i < hpcg::kIsaTierCount; ++i) {
    const auto tier = static_cast<hpcg::IsaTier>(i);
    if (!hpcg::IsaTierSupported(tier)) continue;
    Check(hpcg::ForceIsaTier(tier) == tier,
          std::string("ForceIsaTier(") + hpcg::IsaTierName(tier) +
              ") clamped on a machine that supports it");
    if (!tiers_csv.empty()) tiers_csv += ',';
    tiers_csv += hpcg::IsaTierName(tier);

    const auto run_sweep = [&] {
      compiled->BatchPredict(sweep.data(), candidates, 3, out.data());
    };
    const auto run_pairwise = [&] {
      compiled->BatchPredict(pairwise.data(),
                             static_cast<std::int64_t>(apps) * apps, 3,
                             out.data());
    };
    run_sweep();  // warm-up under the new tier
    const double sweep_ms = Median(TimeReps(run_sweep, reps));
    const double pair_ms = Median(TimeReps(run_pairwise, reps));
    // Single row: median over reps of a 512-row pass, one PredictRow each.
    const double row_ms = Median(TimeReps(
        [&] {
          for (int r = 0; r < 512; ++r) {
            out[0] = *compiled->PredictRow(sweep.data() + (r % candidates) * 3,
                                           3);
          }
        },
        reps));

    const double sweep_mrps = candidates / (sweep_ms * 1e3);
    const double pair_mrps =
        static_cast<double>(apps) * apps / (pair_ms * 1e3);
    const double row_ns = row_ms * 1e6 / 512.0;
    std::printf(
        "  %-8s sweep %8.3f Mrows/s   pairwise %8.3f Mrows/s   "
        "row %7.1f ns\n",
        hpcg::IsaTierName(tier), sweep_mrps, pair_mrps, row_ns);
    report.Set(std::string("sweep_mrows_per_s_") + hpcg::IsaTierName(tier),
               sweep_mrps);
    report.Set(std::string("pairwise_mrows_per_s_") + hpcg::IsaTierName(tier),
               pair_mrps);
    report.Set(std::string("singlerow_ns_") + hpcg::IsaTierName(tier), row_ns);
  }
  hpcg::ForceIsaTier(prior);
  report.Set("tiers_measured", tiers_csv);
  report.Set("isa_tier_best", hpcg::IsaTierName(hpcg::BestSupportedIsaTier()));

  // The model blob's storage path on the same forest: Pack + Dump(2) is
  // what a fit writes, Parse + Unpack what a load reads back.
  {
    chronus::RandomForestOptimizer optimizer;
    Check(optimizer.Deserialize(forest.ToJson()).ok(),
          "RandomForestOptimizer::Deserialize of the bench forest failed");
    std::string blob;
    Result<chronus::OptimizerPtr> restored =
        Result<chronus::OptimizerPtr>::Error("not run");
    const auto round_trip = [&] {
      blob = chronus::ModelFactory::Pack(optimizer).Dump(2);
      auto parsed = Json::Parse(blob);
      restored = parsed.ok() ? chronus::ModelFactory::Unpack(*parsed)
                             : Result<chronus::OptimizerPtr>::Error(
                                   parsed.message());
    };
    round_trip();  // warm-up
    const double trip_ms = Median(TimeReps(round_trip, reps));
    Check(restored.ok() &&
              chronus::ModelFactory::Pack(**restored).Dump(2) == blob,
          "model round trip is not a Dump(2) fixed point");
    const double mb = static_cast<double>(blob.size()) / 1e6;
    const double mb_per_s = mb / (trip_ms / 1e3);
    std::printf(
        "\nmodel round trip (Pack -> Dump(2) -> Parse -> Unpack):\n"
        "  %.3f MB blob   %8.3f ms   %8.2f MB/s\n",
        mb, trip_ms, mb_per_s);
    report.Set("roundtrip_blob_bytes", static_cast<std::uint64_t>(blob.size()));
    report.Set("roundtrip_mb_per_s", mb_per_s);
  }

  BitwiseChecks(forest, *compiled);
  Check(counter("eco_ml_inference_batches_total") > batches_before,
        "eco_ml_inference_batches_total did not move");
  Check(counter("eco_ml_inference_rows_total") > 0,
        "eco_ml_inference_rows_total did not move");
  Check(counter("eco_ml_inference_compiles_total") > 0,
        "eco_ml_inference_compiles_total did not move");

  const std::string path = report.Write();
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
  if (!baseline_out.empty()) {
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
