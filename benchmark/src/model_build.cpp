// model_build: the admin's time to a usable model, for several
// applications. Each application gets its own deployment (a MiniDb file
// repository under the rep's work directory), because InitModelService
// trains on every benchmark of a system and labels the model with the
// first record's binary — one shared deployment would mix applications.
// Per application: the paper's 138-configuration sweep, a random-tree fit,
// preload, and the first slurm-config query.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "deploy.hpp"
#include "workloads.hpp"

namespace ecobench {
namespace {

using namespace eco;

// A chosen configuration must measure within this share of the sweep's best
// GFLOPS/W.
constexpr double kGpwTolerance = 0.025;

struct AppSpec {
  std::string hpcg_path;
  hpcg::HpcgProblem problem;
  std::uint64_t bmc_seed = 0;
};

std::vector<AppSpec> MakeApps(std::uint64_t seed, int count, Digest& digest) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<AppSpec> apps(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    AppSpec& app = apps[i];
    app.hpcg_path = "/apps/a" + std::to_string(i) + "-" +
                    std::to_string(rng.NextBounded(1'000'000)) +
                    "/bin/xhpcg";
    app.problem.nx = 8 * rng.UniformInt(10, 16);
    app.problem.ny = 8 * rng.UniformInt(10, 16);
    app.problem.nz = 8 * rng.UniformInt(10, 16);
    app.bmc_seed = rng.NextU64();
    digest.Add(app.hpcg_path);
    digest.AddValue(app.problem.nx);
    digest.AddValue(app.problem.ny);
    digest.AddValue(app.problem.nz);
    digest.AddValue(app.bmc_seed);
  }
  return apps;
}

}  // namespace

RepResult RunModelBuild(const Options& options, Tracer* tracer,
                        std::int64_t start_ns) {
  RepResult result;
  const int app_count = options.smoke ? 2 : 16;
  result.attempted = static_cast<std::uint64_t>(app_count);

  ThreadPool pool(2);
  const std::vector<chronus::Configuration> grid =
      bench::PaperSweepConfigurations();
  // As in every workload, setup starts from the site's deployment with the
  // paper's hpcg model built; the measured applications are added next to
  // it. (So no first-use cost lands on the first measured application.)
  // When each repository, blob storage and runner call returned, in order:
  // the set-up's and then, one application at a time, the window's.
  std::vector<std::int64_t> call_ends;
  DeploymentOptions site;
  site.workdir = options.workdir + "/chronus";
  site.pool = &pool;
  site.traced = tracer != nullptr;
  site.call_ends = &call_ends;
  chronus::ChronusEnv site_env = MakeDeployment(site);
  const auto site_model = BuildModel(site_env, grid, 0);
  if (!site_model.ok()) {
    result.Check(false, "site model build: " + site_model.message());
    result.failed = result.attempted;
    return result;
  }

  Digest digest;
  const std::vector<AppSpec> apps = MakeApps(options.seed, app_count, digest);
  result.digest = digest.Hex();
  std::vector<chronus::ChronusEnv> deployments;
  deployments.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    DeploymentOptions deploy;
    deploy.workdir = options.workdir + "/app" + std::to_string(i);
    deploy.repository = chronus::RepositoryKind::kMiniDb;
    deploy.runner.hpcg_path = apps[i].hpcg_path;
    deploy.runner.problem = apps[i].problem;
    deploy.runner.bmc_seed = apps[i].bmc_seed;
    deploy.pool = &pool;
    deploy.traced = tracer != nullptr;
    deploy.call_ends = &call_ends;
    deployments.push_back(MakeDeployment(deploy));
  }
  const std::int64_t setup_done = NowNs();
  result.setup_s = static_cast<double>(setup_done - start_ns) / 1e9;
  AppendSegments(start_ns, call_ends, setup_done, result.setup_segment_s);

  // The segments: the stretches of each application's build between one
  // product call's return and the next (one simulated benchmark run, one
  // repository save, the fit before the model is saved, ...).
  Window window(tracer);
  const std::uint64_t spans0 = ClosedSpans();
  std::vector<double> latency_ms;
  std::vector<Result<BuiltModel>> built;
  built.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    call_ends.clear();
    const std::int64_t start = NowNs();
    built.push_back(BuildModel(deployments[i], grid, i + 1));
    const std::int64_t done = NowNs();
    latency_ms.push_back(static_cast<double>(done - start) / 1e6);
    AppendSegments(start, call_ends, done, result.segment_s);
  }
  result.work = static_cast<double>(apps.size());
  window.Close(result);
  result.compute_spans = ClosedSpans() - spans0;

  std::uint64_t failed = 0;
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::string app = "app " + std::to_string(i) + ": ";
    if (!built[i].ok()) {
      ++failed;
      result.Check(false, app + built[i].message());
      continue;
    }
    const BuiltModel& model = *built[i];
    runs += model.sweep.size();
    double best = 0.0;
    double chosen = -1.0;
    for (const auto& record : model.sweep) {
      best = std::max(best, record.GflopsPerWatt());
      if (record.config == model.decision) chosen = record.GflopsPerWatt();
    }
    if (chosen < 0.0) {
      // The model may pick a configuration off the sweep grid (it ranks
      // every configuration of the system): measure it once.
      const auto run = deployments[i].runner->Run(model.decision);
      if (run.ok() && run->avg_system_watts > 0.0) {
        chosen = run->gflops / run->avg_system_watts;
      }
    }
    const bool full_sweep = model.sweep.size() == grid.size();
    const bool near_best = chosen >= (1.0 - kGpwTolerance) * best;
    result.Check(full_sweep, app + "sweep skipped a configuration");
    result.Check(near_best, app + "chosen " + model.decision.ToString() +
                                " measures " + std::to_string(chosen) +
                                " GFLOPS/W, best " + std::to_string(best));
    if (!full_sweep || !near_best) ++failed;
  }
  result.failed = failed;

  auto& m = result.metrics;
  result.compute_s = result.wall_s;
  m["ops_per_s"] = static_cast<double>(apps.size()) / result.wall_s;
  m["latency_p50_ms"] = Percentile(latency_ms, 0.50);
  m["latency_p99_ms"] = Percentile(latency_ms, 0.99);
  std::vector<const telemetry::MetricsRegistry*> clusters;
  for (const auto& env : deployments) clusters.push_back(&env.cluster->metrics());
  AddCounterMetrics(clusters, runs, result);
  return result;
}

}  // namespace ecobench
