// E7 — the submit-path constraint: Slurm gives a job-submit plugin very
// little time ("Slurm has a very short time to make a decision when a job
// is submitted ... and raises an error if a plugin takes too long", §3.1.2)
// — which is why Chronus pre-loads models to local disk and why our
// SlurmConfigService caches deserialized models in memory.
//
// Uses google-benchmark to measure job_submit latency in four regimes:
// plugin skipping (no opt-in), serving a repeat submission from the
// submit-time decision cache, predicting from the warm in-memory model
// cache, and the cold path that parses the pre-loaded model file. Each
// opted-in regime reports the plugin's own counters (cache hit rate and
// mean in-plugin latency) alongside the google-benchmark timing, so the
// warm-vs-cold gap is visible from the stats as well as the wall clock.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "chronus/env.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/job_desc.hpp"

namespace {

using namespace eco;

struct Fixture {
  chronus::ChronusEnv env;
  std::string script;

  Fixture() {
    env = bench::MakePaperEnv();
    const std::vector<chronus::Configuration> sweep = {
        {32, 1, kHz(2'200'000)}, {32, 1, kHz(2'500'000)},
        {16, 1, kHz(2'200'000)}, {32, 2, kHz(2'200'000)},
    };
    const auto meta = chronus::RunFullPipeline(env, sweep, "random-tree");
    if (!meta.ok()) std::abort();
    plugin::SetChronusGateway(env.gateway);
    script = "#!/bin/bash\nsrun --mpi=pmix_v4 ../hpcg/build/bin/xhpcg\n";
  }
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

slurm::JobRequest MakeRequest(const Fixture& fixture, bool opted_in) {
  slurm::JobRequest request;
  request.num_tasks = 32;
  request.comment = opted_in ? "chronus" : "plain";
  request.script = fixture.script;
  return request;
}

void BM_JobSubmit_NotOptedIn(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const auto request = MakeRequest(fixture, false);
  for (auto _ : state) {
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    benchmark::DoNotOptimize(
        plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err));
  }
}
BENCHMARK(BM_JobSubmit_NotOptedIn);

// Attaches the plugin's own instrumentation to the benchmark output: cache
// hit rate and mean wall time spent inside job_submit per call.
void ReportPluginStats(benchmark::State& state) {
  const auto stats = eco::plugin::GetEcoPluginStats();
  const double decided =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  state.counters["cache_hit_rate"] =
      decided > 0.0 ? static_cast<double>(stats.cache_hits) / decided : 0.0;
  state.counters["plugin_us_per_call"] =
      stats.calls > 0
          ? 1e6 * stats.total_seconds / static_cast<double>(stats.calls)
          : 0.0;
}

void BM_JobSubmit_DecisionCacheHit(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const auto request = MakeRequest(fixture, true);
  // Prime the decision cache once; every timed submission is then a pure
  // cache hit — no gateway round-trip at all.
  {
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err);
  }
  plugin::ResetEcoPluginStats();  // keeps the decision cache warm
  for (auto _ : state) {
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    benchmark::DoNotOptimize(
        plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err));
  }
  ReportPluginStats(state);
}
BENCHMARK(BM_JobSubmit_DecisionCacheHit);

void BM_JobSubmit_WarmModelCache(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const auto request = MakeRequest(fixture, true);
  // Warm the in-memory model cache once, then force every round through the
  // gateway (decision cache cleared) — this is the pre-decision-cache warm
  // path: predict from the already-deserialized model.
  {
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err);
  }
  plugin::ResetEcoPluginStats();
  for (auto _ : state) {
    plugin::ClearEcoDecisionCache();
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    benchmark::DoNotOptimize(
        plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err));
  }
  ReportPluginStats(state);
}
BENCHMARK(BM_JobSubmit_WarmModelCache);

void BM_JobSubmit_ColdModelLoad(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const auto request = MakeRequest(fixture, true);
  plugin::ResetEcoPluginStats();
  for (auto _ : state) {
    // Drop both caches each round: this measures the pre-loaded file parse
    // (the paper's fast path), not any in-memory shortcut.
    plugin::ClearEcoDecisionCache();
    fixture.env.slurm_config->ClearCache();
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    benchmark::DoNotOptimize(
        plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err));
  }
  ReportPluginStats(state);
}
BENCHMARK(BM_JobSubmit_ColdModelLoad);

void BM_SlurmConfigPredictOnly(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const std::string system_hash = fixture.env.gateway->system_hash();
  const std::string binary_hash = fixture.env.runner->binary_hash();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.env.slurm_config->Run(system_hash, binary_hash));
  }
}
BENCHMARK(BM_SlurmConfigPredictOnly);

// Captures every per-iteration run so the headline numbers land in
// BENCH_e7_submit_latency.json like the p-series benches — the submit
// latency trajectory is tracked across PRs, not scraped from stdout.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      runs_.push_back(run);
    }
  }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  eco::bench::BenchReport report("e7_submit_latency");
  for (const auto& run : reporter.runs()) {
    std::string key = run.benchmark_name();
    for (char& c : key) {
      if (c == '/' || c == ':' || c == ' ') c = '_';
    }
    // Default google-benchmark time unit: nanoseconds per iteration.
    const double ns = run.GetAdjustedRealTime();
    report.Set(key + "_ns", ns);
    // The submit path's throughput, gated in CI against
    // bench/baselines/BENCH_e7_baseline.json: the warm opted-in case and
    // the not-opted-in case.
    if ((key == "BM_JobSubmit_DecisionCacheHit" ||
         key == "BM_JobSubmit_NotOptedIn") &&
        ns > 0.0) {
      report.Set(key + "_submits_per_s", 1e9 / ns);
    }
    for (const auto& [counter_name, counter] : run.counters) {
      report.Set(key + "_" + counter_name, static_cast<double>(counter));
    }
  }
  const auto stats = eco::plugin::GetEcoPluginStats();
  report.Set("decision_cache_size",
             static_cast<std::uint64_t>(eco::plugin::EcoDecisionCacheSize()));
  report.Set("decision_cache_capacity",
             static_cast<std::uint64_t>(eco::plugin::EcoDecisionCacheCapacity()));
  report.Set("decision_cache_evictions", stats.cache_evictions);
  report.Write();
  benchmark::Shutdown();
  return 0;
}
