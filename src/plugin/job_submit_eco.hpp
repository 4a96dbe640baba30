// job_submit_eco — the Slurm C plugin (§3.1.1, §4.2).
//
// Behaviour, mirroring the paper:
//  - plugin state "user" (default): only jobs whose --comment contains
//    "chronus" are rewritten (§3.3); "active": every job; "deactivated":
//    none.
//  - the system hash comes from /proc/cpuinfo + /proc/meminfo via
//    simple_hash (§4.2.1); the binary hash identifies the executable the
//    script sruns (the paper's constant-path shortcut, §6.1.2, is fixed by
//    hashing the srun target).
//  - Chronus is asked for the energy-efficient configuration and the
//    descriptor's num_tasks / threads_per_core / cpu_freq_min / cpu_freq_max
//    are rewritten (§4.2.2 Listing 4).
//  - any failure leaves the job untouched and returns SLURM_SUCCESS — an eco
//    plugin must never break production submissions. That includes a
//    gateway with a callable unset: no state() reads as "user", no
//    system_hash() or slurm_config() counts as an error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "chronus/gateway.hpp"
#include "slurm/plugin_api.h"

namespace eco::plugin {

// Installs the gateway the plugin calls (nullptr detaches, making the plugin
// inert). Must be set before the registry loads the plugin in tests that
// expect rewriting.
void SetChronusGateway(std::shared_ptr<chronus::ChronusGateway> gateway);

// The ops table to hand to slurm::PluginRegistry::Load.
const job_submit_plugin_ops_t* EcoPluginOps();

// Instrumentation for the submit-latency experiment (E7) and tests.
struct EcoPluginStats {
  std::uint64_t calls = 0;
  std::uint64_t modified = 0;
  std::uint64_t skipped = 0;   // not opted in / deactivated / no gateway
  std::uint64_t errors = 0;    // chronus lookup or parse failures
  std::uint64_t cache_hits = 0;    // decision served from the submit cache
  std::uint64_t cache_misses = 0;  // decision required a gateway round-trip
  std::uint64_t cache_evictions = 0;  // LRU entries dropped at the size cap
  double total_seconds = 0.0;      // wall time inside job_submit
};

EcoPluginStats GetEcoPluginStats();
// Resets the counters only — the decision cache survives so experiments can
// measure warm-cache latency across a stats reset.
void ResetEcoPluginStats();

// The plugin memoizes successful (system_hash, binary_hash, partition) ->
// configuration decisions so repeat submissions skip the gateway round-trip.
// The cache is striped (per-stripe mutex, so concurrent submitters do not
// serialize on one lock) and bounded: each stripe evicts least-recently-used
// entries past its share of the capacity, and evictions are surfaced via
// EcoPluginStats::cache_evictions plus the eco_plugin_cache_evictions_total
// counter and eco_plugin_cache_size gauge in the global metrics registry.
// An entry is valid for the chronus::SettingsEpoch() it was resolved under,
// read right after the submit's state() call: once settings change (a
// re-preload included), the next submit misses and asks the gateway again.
// A hit costs the state() check, one stat() under it, and a lookup keyed
// by string views, building no key string. SetChronusGateway also clears the
// cache (a new gateway may predict differently); these helpers expose it
// to tests and benchmarks.
void ClearEcoDecisionCache();
std::size_t EcoDecisionCacheSize();
// Total entry cap across all stripes. The effective minimum is one entry
// per stripe; shrinking below the current size evicts immediately.
void SetEcoDecisionCacheCapacity(std::size_t max_entries);
std::size_t EcoDecisionCacheCapacity();

// Extracts the executable path from the script's srun line ("" if none) —
// exposed for tests.
std::string ExtractSrunBinary(const char* script);

}  // namespace eco::plugin
