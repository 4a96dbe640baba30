// Metric names, the per-layer metrics every workload shares, and the
// workload dispatch.
#include <algorithm>

#include "common/telemetry/metrics.hpp"
#include "plugin/job_submit_eco.hpp"
#include "workloads.hpp"

namespace ecobench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "submit_eco", "submit_plain", "fleet_replay", "model_build"};
  return names;
}

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> names = {
      "latency_p50_ms",
      "latency_p99_ms",
      "rpc.batch_rtt_p50_us",
      "rpc.batch_rtt_p99_us",
      "rpc.enqueue_p99_us",
      "rpc.bytes_per_job",
      "rpc.decode_errors",
      "ingress.drain_busy_s",
      "ingress.drain_calls",
      "ingress.jobs_per_drain",
      "ingress.residency_p99_ms",
      "ingress.backlog_peak",
      "ingress.rejected",
      "plugin.busy_s",
      "plugin.us_per_call",
      "plugin.cache_hit_ratio",
      "plugin.errors",
      "chronus.state_us",
      "chronus.state_calls",
      "chronus.system_hash_us",
      "chronus.system_hash_calls",
      "chronus.slurm_config_us",
      "chronus.slurm_config_calls",
      "chronus.sweep_s",
      "chronus.runner_busy_s",
      "chronus.preload_s",
      "chronus.first_predict_ms",
      "storage.repo_busy_s",
      "storage.blob_busy_s",
      "ml.fit_s",
      "ml.inference_rows",
      "sched.enqueue_self_us_per_job",
      "sched.dispatch_us_per_pass",
      "sched.starts_per_candidate",
      "sched.pending_peak",
      "sim.run_busy_s",
      "sim.us_per_job",
      "sim.ledger_samples",
      "energy_saved_pct",
      "mean_wait_s",
      "gen.lag_max_ms",
      "gen.saturated",
      "trace.coverage_pct",
      "trace.overhead_pct",
  };
  return names;
}

void AddSpanMetrics(const Tracer& tracer, RepResult& result) {
  auto& m = result.metrics;
  const auto total_s = [&](const char* name) {
    return static_cast<double>(tracer.Stats(name).total_ns) / 1e9;
  };
  const auto mean_us = [&](const char* name) {
    const NameStats stats = tracer.Stats(name);
    return stats.calls > 0 ? static_cast<double>(stats.total_ns) / 1e3 /
                                 static_cast<double>(stats.calls)
                           : 0.0;
  };
  for (const char* call : {"state", "system_hash", "slurm_config"}) {
    const std::string name = std::string("chronus.") + call;
    m[name + "_us"] = mean_us(name.c_str());
    m[name + "_calls"] = static_cast<double>(tracer.Stats(name).calls);
  }
  m["chronus.sweep_s"] = total_s("chronus.sweep");
  m["chronus.runner_busy_s"] = total_s("chronus.runner");
  m["chronus.preload_s"] = total_s("chronus.preload");
  m["chronus.first_predict_ms"] = mean_us("chronus.first_predict") / 1e3;
  m["storage.repo_busy_s"] = total_s("storage.repo");
  m["storage.blob_busy_s"] = total_s("storage.blob");
  m["ml.fit_s"] = static_cast<double>(tracer.SelfNs(Layer::kMl)) / 1e9;
  m["ingress.drain_busy_s"] = total_s("ingress.drain");
  m["sim.run_busy_s"] = total_s("sim.run_until") + total_s("sim.run_idle");
  // The sim thread's recording cost over the compute-bound part, as a share
  // of the part's untraced time.
  const double tracing_s =
      static_cast<double>(result.compute_spans) * MeasureSpanCostNs() / 1e9;
  m["trace.overhead_pct"] =
      result.compute_s > tracing_s
          ? 100.0 * tracing_s / (result.compute_s - tracing_s)
          : 0.0;
}

void AddCounterMetrics(
    const std::vector<const eco::telemetry::MetricsRegistry*>& clusters,
    std::uint64_t jobs, RepResult& result) {
  double submit_ns = 0.0, submit_calls = 0.0, dispatch_ns = 0.0,
         dispatch_calls = 0.0, candidates = 0.0, started = 0.0,
         pending_peak = 0.0;
  for (const auto* registry : clusters) {
    const auto counter = [&](const char* name) {
      return static_cast<double>(CounterValue(*registry, name));
    };
    submit_ns += counter("eco_sched_submit_ns_total");
    submit_calls += counter("eco_sched_submit_calls_total");
    dispatch_ns += counter("eco_sched_dispatch_ns_total");
    dispatch_calls += counter("eco_sched_dispatch_calls_total");
    candidates += counter("eco_sched_plan_candidates_total");
    started += counter("eco_sched_jobs_started_total");
    pending_peak =
        std::max(pending_peak, GaugeValue(*registry, "eco_sched_pending_peak"));
  }
  const auto plugin = eco::plugin::GetEcoPluginStats();
  auto& m = result.metrics;
  // Enqueue wraps the plugin pipeline; the scheduler's own share is the rest.
  m["sched.enqueue_self_us_per_job"] =
      submit_calls > 0.0
          ? std::max(0.0, submit_ns / 1e3 - plugin.total_seconds * 1e6) /
                submit_calls
          : 0.0;
  m["sched.dispatch_us_per_pass"] =
      dispatch_calls > 0.0 ? dispatch_ns / 1e3 / dispatch_calls : 0.0;
  m["sched.starts_per_candidate"] =
      candidates > 0.0 ? started / candidates : 0.0;
  m["sched.pending_peak"] = pending_peak;
  const auto sim = result.layer_self_s.find("sim");
  m["sim.us_per_job"] = sim != result.layer_self_s.end() && jobs > 0
                            ? sim->second * 1e6 / static_cast<double>(jobs)
                            : 0.0;

  m["plugin.busy_s"] = plugin.total_seconds;
  m["plugin.us_per_call"] =
      plugin.calls > 0 ? plugin.total_seconds * 1e6 /
                             static_cast<double>(plugin.calls)
                       : 0.0;
  const double decided =
      static_cast<double>(plugin.cache_hits + plugin.cache_misses);
  m["plugin.cache_hit_ratio"] =
      decided > 0.0 ? static_cast<double>(plugin.cache_hits) / decided : 0.0;
  m["plugin.errors"] = static_cast<double>(plugin.errors);
  m["ml.inference_rows"] = static_cast<double>(CounterValue(
      eco::telemetry::MetricsRegistry::Global(), "eco_ml_inference_rows_total"));
}

RepResult RunWorkload(const Options& options, Tracer* tracer,
                      std::int64_t start_ns) {
  if (options.workload == "submit_eco") {
    return RunSubmit(options, /*opted_in=*/true, tracer, start_ns);
  }
  if (options.workload == "submit_plain") {
    return RunSubmit(options, /*opted_in=*/false, tracer, start_ns);
  }
  if (options.workload == "fleet_replay") {
    return RunFleet(options, tracer, start_ns);
  }
  return RunModelBuild(options, tracer, start_ns);
}

}  // namespace ecobench
