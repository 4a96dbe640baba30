#include "plugin/job_submit_eco.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/telemetry/metrics.hpp"
#include "chronus/storage.hpp"
#include "sysinfo/simple_hash.hpp"

namespace eco::plugin {
namespace {

std::shared_ptr<chronus::ChronusGateway>& Gateway() {
  static std::shared_ptr<chronus::ChronusGateway> gateway;
  return gateway;
}

EcoPluginStats& Stats() {
  static EcoPluginStats stats;
  return stats;
}

// The same counters, published process-wide so sdiag and the exporters see
// them without linking the plugin layer.
struct RegistryStats {
  telemetry::Counter* calls;
  telemetry::Counter* modified;
  telemetry::Counter* skipped;
  telemetry::Counter* errors;
  telemetry::Counter* cache_hits;
  telemetry::Counter* cache_misses;
  telemetry::Counter* cache_evictions;
  telemetry::Gauge* cache_size;  // live entry count, not reset with stats

  static const RegistryStats& Get() {
    static const RegistryStats r = [] {
      auto& reg = telemetry::MetricsRegistry::Global();
      return RegistryStats{
          reg.GetCounter("eco_plugin_calls_total"),
          reg.GetCounter("eco_plugin_modified_total"),
          reg.GetCounter("eco_plugin_skipped_total"),
          reg.GetCounter("eco_plugin_errors_total"),
          reg.GetCounter("eco_plugin_cache_hits_total"),
          reg.GetCounter("eco_plugin_cache_misses_total"),
          reg.GetCounter("eco_plugin_cache_evictions_total"),
          reg.GetGauge("eco_plugin_cache_size"),
      };
    }();
    return r;
  }

  void Reset() const {
    calls->Reset();
    modified->Reset();
    skipped->Reset();
    errors->Reset();
    cache_hits->Reset();
    cache_misses->Reset();
    cache_evictions->Reset();
    // cache_size mirrors the live cache, which a stats reset leaves intact.
  }
};

bool CommentOptsIn(const char* comment) {
  return comment != nullptr &&
         std::string_view(comment).find("chronus") != std::string_view::npos;
}

// A resolved configuration decision, memoized per (system, binary,
// partition) and valid for the chronus::SettingsEpoch() it was resolved
// under. Only successful gateway lookups are cached — failures must retry
// so a recovering Chronus starts serving jobs again.
struct Decision {
  long long cores = 0;
  long long tpc = 0;
  long long freq = 0;
  std::uint64_t epoch = 0;
};

// The cache key. Entries own their strings (CacheKey); lookups and the
// index use views (KeyView), so a hit builds no string.
struct CacheKey {
  std::string system_hash;
  unsigned long binary_hash = 0;
  std::string partition;
};

struct KeyView {
  std::string_view system_hash;
  unsigned long binary_hash = 0;
  std::string_view partition;

  bool operator==(const KeyView&) const = default;
};

struct KeyViewHash {
  std::size_t operator()(const KeyView& key) const {
    std::size_t h = std::hash<std::string_view>{}(key.system_hash);
    h = h * 31 + std::hash<unsigned long>{}(key.binary_hash);
    return h * 31 + std::hash<std::string_view>{}(key.partition);
  }
};

KeyView ViewOf(const CacheKey& key) {
  return {key.system_hash, key.binary_hash, key.partition};
}

// Striped bounded LRU. Each stripe owns a per-stripe mutex, an LRU list
// (front = most recently used) and an index into it, so concurrent
// submitters only serialize when their keys hash to the same stripe.
// The total capacity is split evenly across stripes; a stripe past its
// share evicts from its own tail (strict global LRU would need the single
// lock the striping exists to remove).
constexpr std::size_t kCacheStripeCount = 8;  // power of two
constexpr std::size_t kDefaultCacheCapacity = 65536;

struct CacheStripe {
  using Lru = std::list<std::pair<CacheKey, Decision>>;
  std::mutex mutex;
  Lru lru;
  // Keys view the strings of the list node they index (list nodes never
  // move), so the index stores no second copy.
  std::unordered_map<KeyView, Lru::iterator, KeyViewHash> index;
};

std::array<CacheStripe, kCacheStripeCount>& CacheStripes() {
  static auto* stripes = new std::array<CacheStripe, kCacheStripeCount>();
  return *stripes;
}

std::atomic<std::size_t>& CacheCapacity() {
  static std::atomic<std::size_t> capacity{kDefaultCacheCapacity};
  return capacity;
}

// Live total entry count — keeps EcoDecisionCacheSize() and the size gauge
// O(1) instead of an eight-lock sweep.
std::atomic<std::size_t>& CacheEntries() {
  static std::atomic<std::size_t> entries{0};
  return entries;
}

CacheStripe& StripeFor(const KeyView& key) {
  return CacheStripes()[KeyViewHash{}(key) & (kCacheStripeCount - 1)];
}

std::size_t PerStripeCapacity() {
  return std::max<std::size_t>(
      1, CacheCapacity().load(std::memory_order_relaxed) / kCacheStripeCount);
}

// Evicts stripe-tail entries past `cap`; returns how many were dropped.
// Caller holds the stripe mutex.
std::size_t TrimStripe(CacheStripe& stripe, std::size_t cap) {
  std::size_t evicted = 0;
  while (stripe.index.size() > cap) {
    stripe.index.erase(ViewOf(stripe.lru.back().first));
    stripe.lru.pop_back();
    ++evicted;
  }
  if (evicted > 0) {
    CacheEntries().fetch_sub(evicted, std::memory_order_relaxed);
  }
  return evicted;
}

// A hit only for a decision resolved under `epoch`; an older one is a miss
// that the following CacheInsert overwrites.
bool CacheLookup(const KeyView& key, std::uint64_t epoch, Decision* out) {
  CacheStripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.index.find(key);
  if (it == stripe.index.end() || it->second->second.epoch != epoch) {
    return false;
  }
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
  *out = it->second->second;
  return true;
}

// Inserts (or refreshes) a decision; returns the number of LRU evictions
// the insert forced.
std::size_t CacheInsert(const KeyView& key, const Decision& decision) {
  CacheStripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.index.find(key);
  if (it != stripe.index.end()) {
    it->second->second = decision;
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    return 0;
  }
  stripe.lru.emplace_front(
      CacheKey{std::string(key.system_hash), key.binary_hash,
               std::string(key.partition)},
      decision);
  stripe.index.emplace(ViewOf(stripe.lru.front().first), stripe.lru.begin());
  CacheEntries().fetch_add(1, std::memory_order_relaxed);
  return TrimStripe(stripe, PerStripeCapacity());
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

// The executable the script's first srun line launches, as a view into the
// script ("" if none): the first non-option token after `srun` (anything
// later is the application's own arguments). srun's long options take
// --key=value form, so skipping '-'-prefixed tokens is sufficient.
std::string_view SrunBinary(std::string_view script) {
  std::size_t start = 0;
  while (start <= script.size()) {
    std::size_t end = script.find('\n', start);
    if (end == std::string_view::npos) end = script.size();
    std::string_view line = script.substr(start, end - start);
    start = end + 1;
    while (!line.empty() && IsSpace(line.front())) line.remove_prefix(1);
    if (!line.starts_with("srun ")) continue;
    line.remove_prefix(4);
    while (!line.empty()) {
      while (!line.empty() && IsSpace(line.front())) line.remove_prefix(1);
      std::size_t length = 0;
      while (length < line.size() && !IsSpace(line[length])) ++length;
      const std::string_view token = line.substr(0, length);
      line.remove_prefix(length);
      if (!token.empty() && token.front() != '-') return token;
    }
  }
  return {};
}

// Listing 4: rewrite the descriptor from a decision.
void ApplyDecision(job_desc_msg_t* job_desc, const Decision& d) {
  if (d.cores > 0) job_desc->num_tasks = static_cast<uint32_t>(d.cores);
  if (d.tpc > 0) job_desc->threads_per_core = static_cast<uint16_t>(d.tpc);
  if (d.freq > 0) {
    job_desc->cpu_freq_min = static_cast<uint32_t>(d.freq);
    job_desc->cpu_freq_max = static_cast<uint32_t>(d.freq);
  }
}

}  // namespace

std::string ExtractSrunBinary(const char* script) {
  if (script == nullptr) return "";
  return std::string(SrunBinary(script));
}

void SetChronusGateway(std::shared_ptr<chronus::ChronusGateway> gateway) {
  Gateway() = std::move(gateway);
  // A different gateway may resolve the same key to a different
  // configuration; stale decisions must not outlive it.
  ClearEcoDecisionCache();
}

EcoPluginStats GetEcoPluginStats() { return Stats(); }
void ResetEcoPluginStats() {
  Stats() = EcoPluginStats{};
  RegistryStats::Get().Reset();
}

void ClearEcoDecisionCache() {
  for (CacheStripe& stripe : CacheStripes()) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    CacheEntries().fetch_sub(stripe.index.size(), std::memory_order_relaxed);
    stripe.index.clear();
    stripe.lru.clear();
  }
  RegistryStats::Get().cache_size->Set(0.0);
}

std::size_t EcoDecisionCacheSize() {
  return CacheEntries().load(std::memory_order_relaxed);
}

void SetEcoDecisionCacheCapacity(std::size_t max_entries) {
  CacheCapacity().store(std::max<std::size_t>(1, max_entries),
                        std::memory_order_relaxed);
  // Shrinking below the current size takes effect now, not lazily on the
  // next insert into each stripe.
  const std::size_t per_stripe = PerStripeCapacity();
  std::size_t evicted = 0;
  for (CacheStripe& stripe : CacheStripes()) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    evicted += TrimStripe(stripe, per_stripe);
  }
  if (evicted > 0) {
    Stats().cache_evictions += evicted;
    RegistryStats::Get().cache_evictions->Add(evicted);
  }
  RegistryStats::Get().cache_size->Set(
      static_cast<double>(EcoDecisionCacheSize()));
}

std::size_t EcoDecisionCacheCapacity() {
  return CacheCapacity().load(std::memory_order_relaxed);
}

namespace {

int EcoInit() {
  ECO_INFO << "job_submit_eco: loaded";
  return SLURM_SUCCESS;
}

void EcoFini() { ECO_INFO << "job_submit_eco: unloaded"; }

// The paper's Listing 4 entry point.
int EcoJobSubmit(job_desc_msg_t* job_desc, uint32_t submit_uid,
                 char** err_msg) {
  (void)submit_uid;
  if (err_msg != nullptr) *err_msg = nullptr;
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  auto& stats = Stats();
  const RegistryStats& reg = RegistryStats::Get();
  ++stats.calls;
  reg.calls->Add(1);
  const auto record_time = [&] {
    stats.total_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  };

  const auto gateway = Gateway();
  if (job_desc == nullptr || gateway == nullptr) {
    ++stats.skipped;
    reg.skipped->Add(1);
    record_time();
    return SLURM_SUCCESS;
  }

  const chronus::PluginState state =
      gateway->state ? gateway->state() : chronus::PluginState::kUser;
  // Read after state(), which revalidates the settings snapshot: a change
  // to settings (a re-preload included) is honoured by this very submit.
  const std::uint64_t epoch = chronus::SettingsEpoch();
  const bool opted_in = CommentOptsIn(job_desc->comment);
  const bool should_run =
      state == chronus::PluginState::kActive ||
      (state == chronus::PluginState::kUser && opted_in);
  if (!should_run) {
    ++stats.skipped;
    reg.skipped->Add(1);
    record_time();
    return SLURM_SUCCESS;
  }
  const auto fail = [&](std::string_view why) {
    ECO_WARN << "job_submit_eco: " << why << "; leaving job "
             << job_desc->job_id << " unchanged";
    ++stats.errors;
    reg.errors->Add(1);
    record_time();
    return SLURM_SUCCESS;
  };
  if (!gateway->system_hash) return fail("gateway has no system_hash");

  // Identify the system and the binary (§4.2.1).
  const std::string system_hash = gateway->system_hash();
  const unsigned long binary_hash = sysinfo::SimpleHash(
      SrunBinary(job_desc->script != nullptr ? job_desc->script : ""));
  const KeyView key{system_hash, binary_hash,
                    job_desc->partition != nullptr ? job_desc->partition : ""};

  // Fast path: a previous submission already resolved this
  // (system, binary, partition) under the current settings — skip the
  // gateway round-trip entirely.
  Decision cached;
  if (CacheLookup(key, epoch, &cached)) {
    ApplyDecision(job_desc, cached);
    ++stats.cache_hits;
    ++stats.modified;
    reg.cache_hits->Add(1);
    reg.modified->Add(1);
    ECO_DEBUG << "job_submit_eco: job " << job_desc->job_id
              << " set from cache to " << cached.cores << " tasks @ "
              << cached.freq << " kHz, " << cached.tpc << " threads/core";
    record_time();
    return SLURM_SUCCESS;
  }
  ++stats.cache_misses;
  reg.cache_misses->Add(1);
  if (!gateway->slurm_config) return fail("gateway has no slurm_config");

  // Miss path: the gateway's SlurmConfigService resolves the model for this
  // (system_hash, binary_hash) — unpacking a random-tree model compiles its
  // SoA inference engine once there (eco_ml_inference_compiles_total), and
  // the candidate sweep behind this call runs as one batched predict.
  const auto config_json =
      gateway->slurm_config(system_hash, sysinfo::HashToString(binary_hash));
  if (!config_json.ok()) {
    return fail("chronus lookup failed (" + config_json.message() + ")");
  }
  const auto parsed = Json::Parse(*config_json);
  if (!parsed.ok() || !parsed->is_object()) {
    return fail("bad configuration JSON");
  }

  Decision decision;
  decision.cores = parsed->at("cores").as_int(0);
  decision.tpc = parsed->at("threads_per_core").as_int(0);
  decision.freq = parsed->at("frequency").as_int(0);
  decision.epoch = epoch;
  ApplyDecision(job_desc, decision);
  const std::size_t evicted = CacheInsert(key, decision);
  if (evicted > 0) {
    stats.cache_evictions += evicted;
    reg.cache_evictions->Add(evicted);
  }
  reg.cache_size->Set(static_cast<double>(EcoDecisionCacheSize()));
  ++stats.modified;
  reg.modified->Add(1);
  ECO_INFO << "job_submit_eco: job " << job_desc->job_id << " set to "
           << decision.cores << " tasks @ " << decision.freq << " kHz, "
           << decision.tpc << " threads/core";
  record_time();
  return SLURM_SUCCESS;
}

int EcoJobModify(job_desc_msg_t* job_desc, uint32_t submit_uid,
                 char** err_msg) {
  // Modification re-runs the same logic (Slurm calls job_modify on updates).
  return EcoJobSubmit(job_desc, submit_uid, err_msg);
}

const job_submit_plugin_ops_t kEcoOps = {
    "Eco energy-efficient job submit plugin",
    "job_submit/eco",
    /*plugin_version=*/220509,  // tracks the paper's Slurm 22.05.9
    EcoInit,
    EcoFini,
    EcoJobSubmit,
    EcoJobModify,
};

}  // namespace

const job_submit_plugin_ops_t* EcoPluginOps() { return &kEcoOps; }

}  // namespace eco::plugin
