// The four workloads. Each call runs one rep in the calling process and
// returns what it measured and checked; `tracer` is non-null on a traced
// rep (the calling thread is already attached to it) and `start_ns` is the
// process start, from which setup time is measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace ecobench {

// submit_eco (every job opts in) and submit_plain (none does): loopback
// wire -> subd -> SubmitIngress -> Drain + SubmitBatch -> RunUntil.
RepResult RunSubmit(const Options& options, bool opted_in, Tracer* tracer,
                    std::int64_t start_ns);

// A sim-time replay of a generated fleet, plugin on, with an EnergyLedger;
// plus a plugin-off twin for the energy comparison.
RepResult RunFleet(const Options& options, Tracer* tracer,
                   std::int64_t start_ns);

// The Chronus offline path for several applications.
RepResult RunModelBuild(const Options& options, Tracer* tracer,
                        std::int64_t start_ns);

RepResult RunWorkload(const Options& options, Tracer* tracer,
                      std::int64_t start_ns);

// The workload names, and the per-layer metrics every traced rep reports
// (the harness checks them against BENCHMARK.json).
const std::vector<std::string>& WorkloadNames();
const std::vector<std::string>& PerLayerMetrics();

// Per-layer metrics read from the spans (zero when the layer did not run).
void AddSpanMetrics(const Tracer& tracer, RepResult& result);

// Per-layer metrics read from the counters the product publishes: the
// scheduler families of the clusters under test (`jobs` ran there) and the
// eco plugin's stats.
void AddCounterMetrics(
    const std::vector<const eco::telemetry::MetricsRegistry*>& clusters,
    std::uint64_t jobs, RepResult& result);

}  // namespace ecobench
