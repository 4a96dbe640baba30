#include "chronus/services.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "chronus/optimizers.hpp"
#include "chronus/storage.hpp"

namespace eco::chronus {
namespace {

constexpr const char* kPreloadedKey = "preloaded_models";

std::string PreloadKey(const std::string& system_hash,
                       const std::string& binary_hash) {
  return system_hash + ":" + binary_hash;
}

}  // namespace

// -------------------------------------------------------- BenchmarkService

BenchmarkService::BenchmarkService(RepositoryPtr repository, RunnerPtr runner,
                                   SystemInfoPtr system_info, ThreadPool* pool)
    : repository_(std::move(repository)),
      runner_(std::move(runner)),
      system_info_(std::move(system_info)),
      pool_(pool) {}

Result<std::vector<BenchmarkRecord>> BenchmarkService::Run(
    const std::vector<Configuration>& configs) {
  auto system = system_info_->Gather();
  if (!system.ok()) {
    return Result<std::vector<BenchmarkRecord>>::Error(system.message());
  }
  auto system_id = repository_->SaveSystem(*system);
  if (!system_id.ok()) {
    return Result<std::vector<BenchmarkRecord>>::Error(system_id.message());
  }
  last_system_id_ = *system_id;

  std::vector<Configuration> to_run = configs;
  if (to_run.empty()) to_run = system->AllConfigurations();

  // Measure phase. Independent configurations fan out across the pool when
  // the runner tolerates concurrent Run() calls; each slot is written by
  // exactly one task, so collection stays in configuration order.
  const auto count = static_cast<std::int64_t>(to_run.size());
  std::vector<Result<RunResult>> outcomes(
      to_run.size(), Result<RunResult>::Error("benchmark: not run"));
  const auto measure = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ECO_INFO << "Benchmark " << to_run[u].ToString() << " starting";
      outcomes[u] = runner_->Run(to_run[u]);
    }
  };
  const bool parallel =
      pool_ != nullptr && runner_->max_concurrency() > 1 && count > 1;
  if (parallel) {
    pool_->ParallelFor(0, count, /*grain=*/1, measure);
  } else {
    measure(0, count);
  }

  // Save phase: serial, in configuration order — the repository is not
  // required to be thread-safe, and ids stay deterministic.
  std::vector<BenchmarkRecord> saved;
  for (std::size_t u = 0; u < to_run.size(); ++u) {
    const Configuration& config = to_run[u];
    Result<RunResult>& result = outcomes[u];
    if (!result.ok()) {
      ECO_WARN << "Benchmark " << config.ToString()
               << " failed: " << result.message();
      continue;
    }
    BenchmarkRecord record;
    record.system_id = *system_id;
    record.application = runner_->application();
    record.binary_hash = runner_->binary_hash();
    record.config = config;
    record.gflops = result->gflops;
    record.duration_s = result->duration_s;
    record.system_kilojoules = result->system_kilojoules;
    record.cpu_kilojoules = result->cpu_kilojoules;
    record.avg_system_watts = result->avg_system_watts;
    record.avg_cpu_watts = result->avg_cpu_watts;
    record.avg_cpu_temp = result->avg_cpu_temp;
    auto id = repository_->SaveBenchmark(record);
    if (!id.ok()) {
      return Result<std::vector<BenchmarkRecord>>::Error(id.message());
    }
    record.id = *id;
    saved.push_back(std::move(record));
  }
  if (saved.empty()) {
    return Result<std::vector<BenchmarkRecord>>::Error(
        "benchmark: every configuration failed");
  }
  return saved;
}

Result<std::vector<BenchmarkRecord>> BenchmarkService::Resume(
    const std::vector<Configuration>& configs, std::size_t* skipped) {
  auto system = system_info_->Gather();
  if (!system.ok()) {
    return Result<std::vector<BenchmarkRecord>>::Error(system.message());
  }
  auto system_id = repository_->SaveSystem(*system);
  if (!system_id.ok()) {
    return Result<std::vector<BenchmarkRecord>>::Error(system_id.message());
  }
  auto existing = repository_->ListBenchmarks(*system_id);
  if (!existing.ok()) {
    return Result<std::vector<BenchmarkRecord>>::Error(existing.message());
  }

  std::vector<Configuration> to_run = configs;
  if (to_run.empty()) to_run = system->AllConfigurations();

  const std::string binary = runner_->binary_hash();
  std::vector<Configuration> remaining;
  for (const Configuration& config : to_run) {
    const bool measured = std::any_of(
        existing->begin(), existing->end(), [&](const BenchmarkRecord& b) {
          return b.config == config && b.binary_hash == binary;
        });
    if (!measured) remaining.push_back(config);
  }
  if (skipped != nullptr) *skipped = to_run.size() - remaining.size();
  if (remaining.empty()) {
    last_system_id_ = *system_id;
    ECO_INFO << "benchmark resume: all " << to_run.size()
             << " configurations already measured";
    return std::vector<BenchmarkRecord>{};
  }
  ECO_INFO << "benchmark resume: " << remaining.size() << " of "
           << to_run.size() << " configurations still to measure";
  return Run(remaining);
}

// -------------------------------------------------------- InitModelService

InitModelService::InitModelService(RepositoryPtr repository,
                                   FileRepositoryPtr blobs)
    : repository_(std::move(repository)), blobs_(std::move(blobs)) {}

Result<ModelMeta> InitModelService::Run(const std::string& type, int system_id,
                                        double now) {
  auto optimizer = ModelFactory::Make(type);
  if (!optimizer.ok()) return Result<ModelMeta>::Error(optimizer.message());

  auto benchmarks = repository_->ListBenchmarks(system_id);
  if (!benchmarks.ok()) return Result<ModelMeta>::Error(benchmarks.message());
  if (benchmarks->empty()) {
    return Result<ModelMeta>::Error(
        "init-model: no benchmarks for system " + std::to_string(system_id));
  }

  ECO_INFO << "initializing model of type " << type << ", training on "
           << benchmarks->size() << " benchmarks";
  const Status trained = (*optimizer)->Train(*benchmarks);
  if (!trained.ok()) return Result<ModelMeta>::Error(trained.message());

  const Json envelope = ModelFactory::Pack(**optimizer);
  const std::string blob_name = "model-" + type + "-system" +
                                std::to_string(system_id) + "-" +
                                std::to_string(static_cast<long long>(now)) +
                                ".json";
  auto blob_path = blobs_->Save(blob_name, envelope.Dump(2));
  if (!blob_path.ok()) return Result<ModelMeta>::Error(blob_path.message());

  ModelMeta meta;
  meta.system_id = system_id;
  meta.type = type;
  meta.application = benchmarks->front().application;
  meta.binary_hash = benchmarks->front().binary_hash;
  meta.blob_path = *blob_path;
  meta.created_at = now;
  auto id = repository_->SaveModelMeta(meta);
  if (!id.ok()) return Result<ModelMeta>::Error(id.message());
  meta.id = *id;
  return meta;
}

// -------------------------------------------------------- LoadModelService

LoadModelService::LoadModelService(RepositoryPtr repository,
                                   FileRepositoryPtr blobs,
                                   LocalStoragePtr local)
    : repository_(std::move(repository)),
      blobs_(std::move(blobs)),
      local_(std::move(local)) {}

Result<std::string> LoadModelService::Run(int model_id) {
  auto meta = repository_->GetModelMeta(model_id);
  if (!meta.ok()) return Result<std::string>::Error(meta.message());

  auto blob = blobs_->Load(meta->blob_path);
  if (!blob.ok()) return Result<std::string>::Error(blob.message());
  auto envelope = Json::Parse(*blob);
  if (!envelope.ok()) return Result<std::string>::Error(envelope.message());

  auto system = repository_->GetSystem(meta->system_id);
  if (!system.ok()) return Result<std::string>::Error(system.message());

  // Self-contained local file: the predict path must not need the database.
  JsonArray candidates;
  for (const Configuration& c : system->AllConfigurations()) {
    candidates.push_back(c.ToJson());
  }
  JsonObject local_file;
  local_file["model"] = std::move(*envelope);
  local_file["candidates"] = std::move(candidates);
  local_file["system_hash"] = system->system_hash;
  local_file["binary_hash"] = meta->binary_hash;
  local_file["model_id"] = meta->id;

  const std::string name = "preloaded-model-" + std::to_string(model_id) + ".json";
  const Status written = local_->WriteFile(name, Json(std::move(local_file)).Dump());
  if (!written.ok()) return Result<std::string>::Error(written.message());

  // Index it in settings.
  auto settings = local_->LoadSettings();
  if (!settings.ok()) return Result<std::string>::Error(settings.message());
  JsonObject root = settings->as_object();
  JsonObject preloaded = root[kPreloadedKey].as_object();
  preloaded[PreloadKey(system->system_hash, meta->binary_hash)] = name;
  root[kPreloadedKey] = Json(std::move(preloaded));
  const Status saved = local_->SaveSettings(Json(std::move(root)));
  if (!saved.ok()) return Result<std::string>::Error(saved.message());

  ECO_INFO << "model " << model_id << " pre-loaded to " << local_->ResolvePath(name);
  return local_->ResolvePath(name);
}

// ------------------------------------------------------ SlurmConfigService

SlurmConfigService::SlurmConfigService(LocalStoragePtr local)
    : local_(std::move(local)) {}

Result<const SlurmConfigService::CachedModel*> SlurmConfigService::GetModel(
    const std::string& system_hash, const std::string& binary_hash) {
  const std::string key = PreloadKey(system_hash, binary_hash);
  // Refresh the settings snapshot first (one stat()), then read the epoch:
  // models resolved under an older one — before a re-preload or any other
  // settings change — are misses.
  auto settings = local_->SettingsSnapshot();
  const std::uint64_t epoch = SettingsEpoch();
  if (epoch != cache_epoch_) {
    cache_.clear();
    cache_epoch_ = epoch;
  }
  for (const auto& cached : cache_) {
    if (cached.key == key) return &cached;
  }

  if (!settings.ok()) {
    return Result<const CachedModel*>::Error(settings.message());
  }
  const Json& entry = (*settings)->at(kPreloadedKey).at(key);
  if (!entry.is_string()) {
    return Result<const CachedModel*>::Error(
        "slurm-config: no pre-loaded model for " + key);
  }
  auto text = local_->ReadFile(entry.as_string());
  if (!text.ok()) return Result<const CachedModel*>::Error(text.message());
  auto file = Json::Parse(*text);
  if (!file.ok()) return Result<const CachedModel*>::Error(file.message());

  auto optimizer = ModelFactory::Unpack(file->at("model"));
  if (!optimizer.ok()) {
    return Result<const CachedModel*>::Error(optimizer.message());
  }
  CachedModel cached;
  cached.key = key;
  cached.optimizer = *optimizer;
  for (const auto& c : file->at("candidates").as_array()) {
    auto config = Configuration::FromJson(c);
    if (config.ok()) cached.candidates.push_back(*config);
  }
  if (cached.candidates.empty()) {
    return Result<const CachedModel*>::Error(
        "slurm-config: pre-loaded file has no candidates");
  }
  cache_.push_back(std::move(cached));
  return &cache_.back();
}

Result<Configuration> SlurmConfigService::Predict(
    const std::string& system_hash, const std::string& binary_hash) {
  auto model = GetModel(system_hash, binary_hash);
  if (!model.ok()) return Result<Configuration>::Error(model.message());
  return (*model)->optimizer->BestConfiguration((*model)->candidates);
}

Result<std::string> SlurmConfigService::Run(const std::string& system_hash,
                                            const std::string& binary_hash) {
  auto best = Predict(system_hash, binary_hash);
  if (!best.ok()) return Result<std::string>::Error(best.message());
  return best->ToJson().Dump();
}

// --------------------------------------------------------- SettingsService

const char* PluginStateName(PluginState s) {
  switch (s) {
    case PluginState::kActive:
      return "active";
    case PluginState::kUser:
      return "user";
    case PluginState::kDeactivated:
      return "deactivated";
  }
  return "?";
}

bool ParsePluginState(const std::string& name, PluginState& out) {
  const std::string lower = ToLower(name);
  if (lower == "active") {
    out = PluginState::kActive;
  } else if (lower == "user") {
    out = PluginState::kUser;
  } else if (lower == "deactivated" || lower == "deactivate") {
    out = PluginState::kDeactivated;
  } else {
    return false;
  }
  return true;
}

SettingsService::SettingsService(LocalStoragePtr local)
    : local_(std::move(local)) {}

Result<std::shared_ptr<const Json>> SettingsService::Load() {
  return local_->SettingsSnapshot();
}

Status SettingsService::Store(const Json& settings) {
  return local_->SaveSettings(settings);
}

Result<std::string> SettingsService::GetDatabasePath() {
  auto settings = Load();
  if (!settings.ok()) return Result<std::string>::Error(settings.message());
  return (*settings)->at("database").as_string();
}

Status SettingsService::SetDatabasePath(const std::string& path) {
  auto settings = Load();
  if (!settings.ok()) return settings.status();
  JsonObject root = (*settings)->as_object();
  root["database"] = path;
  return Store(Json(std::move(root)));
}

Result<std::string> SettingsService::GetBlobStoragePath() {
  auto settings = Load();
  if (!settings.ok()) return Result<std::string>::Error(settings.message());
  return (*settings)->at("blob_storage").as_string();
}

Status SettingsService::SetBlobStoragePath(const std::string& path) {
  auto settings = Load();
  if (!settings.ok()) return settings.status();
  JsonObject root = (*settings)->as_object();
  root["blob_storage"] = path;
  return Store(Json(std::move(root)));
}

PluginState SettingsService::GetState() {
  auto settings = Load();
  PluginState state = PluginState::kUser;  // the paper's default: opt-in
  if (settings.ok() && (*settings)->at("state").is_string()) {
    ParsePluginState((*settings)->at("state").as_string(), state);
  }
  return state;
}

Status SettingsService::SetState(PluginState state) {
  auto settings = Load();
  if (!settings.ok()) return settings.status();
  JsonObject root = (*settings)->as_object();
  root["state"] = PluginStateName(state);
  return Store(Json(std::move(root)));
}

// --------------------------------------------------------- DeadlineService

Result<Configuration> DeadlineService::Choose(int system_id,
                                              double deadline_seconds,
                                              double safety_factor) {
  auto benchmarks = repository_->ListBenchmarks(system_id);
  if (!benchmarks.ok()) return Result<Configuration>::Error(benchmarks.message());
  if (benchmarks->empty()) {
    return Result<Configuration>::Error("deadline: no benchmarks for system");
  }

  std::vector<Configuration> feasible;
  const BenchmarkRecord* fastest = nullptr;
  for (const auto& b : *benchmarks) {
    if (fastest == nullptr || b.duration_s < fastest->duration_s) fastest = &b;
    if (b.duration_s * safety_factor <= deadline_seconds) {
      feasible.push_back(b.config);
    }
  }
  if (feasible.empty()) {
    ECO_WARN << "deadline: no configuration fits " << deadline_seconds
             << "s; falling back to the fastest measured";
    return fastest->config;
  }
  return optimizer_->BestConfiguration(feasible);
}

}  // namespace eco::chronus
