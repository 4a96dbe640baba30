// Application services — Chronus's use cases (§3.1.2):
//   1. Benchmarking        -> BenchmarkService
//   2. Model building      -> InitModelService
//   3. Pre-load model      -> LoadModelService
//   4. Predict config      -> SlurmConfigService (called by job_submit_eco)
//   plus SettingsService (the `chronus set` command) and DeadlineService
//   (§6.2.1 future work: best configuration that still meets a deadline).
//
// Services depend only on the integration interfaces; implementations are
// injected at the entry point (Dependency Inversion, §4.1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "chronus/interfaces.hpp"

namespace eco::chronus {

class BenchmarkService {
 public:
  // `pool` (optional, not owned) fans the sweep out across threads when the
  // runner's max_concurrency() allows it; results are collected and saved in
  // configuration order either way, so repository contents are identical to
  // a serial sweep.
  BenchmarkService(RepositoryPtr repository, RunnerPtr runner,
                   SystemInfoPtr system_info, ThreadPool* pool = nullptr);

  // Registers the system (idempotent) and benchmarks each configuration —
  // all configurations of the system when `configs` is empty (§3.1.2).
  // Individual failed runs are skipped with a warning; the saved records are
  // returned.
  Result<std::vector<BenchmarkRecord>> Run(
      const std::vector<Configuration>& configs = {});

  // Like Run(), but skips configurations this system+binary already has in
  // the repository — restartable sweeps ("The benchmarking process can take
  // a while", §3.3: an interrupted multi-day sweep resumes where it left
  // off). Returns only newly measured records; `skipped` (optional) reports
  // how many were already present.
  Result<std::vector<BenchmarkRecord>> Resume(
      const std::vector<Configuration>& configs = {},
      std::size_t* skipped = nullptr);

  // The system id assigned/found during the last Run().
  [[nodiscard]] int last_system_id() const { return last_system_id_; }

 private:
  RepositoryPtr repository_;
  RunnerPtr runner_;
  SystemInfoPtr system_info_;
  ThreadPool* pool_ = nullptr;
  int last_system_id_ = -1;
};

class InitModelService {
 public:
  InitModelService(RepositoryPtr repository, FileRepositoryPtr blobs);

  // Trains a `type` model on the system's benchmarks, uploads the blob, and
  // records metadata (§3.1.2 "Model building" steps 1-3). `now` stamps
  // created_at.
  Result<ModelMeta> Run(const std::string& type, int system_id, double now);

 private:
  RepositoryPtr repository_;
  FileRepositoryPtr blobs_;
};

class LoadModelService {
 public:
  LoadModelService(RepositoryPtr repository, FileRepositoryPtr blobs,
                   LocalStoragePtr local);

  // Pre-loads model `model_id` onto the head node's local disk and indexes
  // it in settings under "<system_hash>:<binary_hash>" so the predict path
  // never touches the database (§3.1.2 "Pre-load model"). Returns the local
  // file path. The local file is self-contained: model envelope + the
  // system's candidate configurations.
  Result<std::string> Run(int model_id);

 private:
  RepositoryPtr repository_;
  FileRepositoryPtr blobs_;
  LocalStoragePtr local_;
};

class SlurmConfigService {
 public:
  explicit SlurmConfigService(LocalStoragePtr local);

  // The plugin-facing fast path: `chronus slurm-config SYSTEM_HASH
  // BINARY_HASH` returning the configuration JSON (§3.3). Reads only local
  // storage; deserialized models are cached in memory because Slurm gives a
  // submit plugin very little time (§3.1.2). The cache lives for one
  // SettingsEpoch(): any settings change, a re-preload included, empties it
  // before the next call answers.
  Result<std::string> Run(const std::string& system_hash,
                          const std::string& binary_hash);

  // Typed variant used by tests and the deadline service.
  Result<Configuration> Predict(const std::string& system_hash,
                                const std::string& binary_hash);

  void ClearCache() { cache_.clear(); }

 private:
  // One entry per (system_hash, binary_hash). For a random-tree model the
  // optimizer carries its CompiledForest (built during Unpack/Deserialize),
  // so the flattening cost is paid once on the miss path and every
  // subsequent BestConfiguration sweep runs the batched SoA engine.
  struct CachedModel {
    std::string key;
    OptimizerPtr optimizer;
    std::vector<Configuration> candidates;
  };
  Result<const CachedModel*> GetModel(const std::string& system_hash,
                                      const std::string& binary_hash);

  LocalStoragePtr local_;
  std::vector<CachedModel> cache_;
  std::uint64_t cache_epoch_ = 0;  // the SettingsEpoch() cache_ was filled in
};

// Plugin activation state (`chronus set state ...`, §3.3): "user" applies
// only to jobs opting in via --comment chronus; "active" applies to every
// job; "deactivated" never rewrites.
enum class PluginState { kActive, kUser, kDeactivated };

const char* PluginStateName(PluginState s);
bool ParsePluginState(const std::string& name, PluginState& out);

class SettingsService {
 public:
  explicit SettingsService(LocalStoragePtr local);

  Result<std::string> GetDatabasePath();
  Status SetDatabasePath(const std::string& path);
  Result<std::string> GetBlobStoragePath();
  Status SetBlobStoragePath(const std::string& path);
  [[nodiscard]] PluginState GetState();
  Status SetState(PluginState state);

 private:
  Result<std::shared_ptr<const Json>> Load();
  Status Store(const Json& settings);
  LocalStoragePtr local_;
};

// §6.2.1: deadline-aware configuration choice. Uses measured durations from
// the repository to filter candidates, then the optimizer to rank.
class DeadlineService {
 public:
  DeadlineService(RepositoryPtr repository, OptimizerPtr optimizer)
      : repository_(std::move(repository)), optimizer_(std::move(optimizer)) {}

  // Most efficient configuration whose measured duration (inflated by
  // `safety_factor`) fits within `deadline_seconds`. Falls back to the
  // fastest measured configuration if none fits.
  Result<Configuration> Choose(int system_id, double deadline_seconds,
                               double safety_factor = 1.1);

 private:
  RepositoryPtr repository_;
  OptimizerPtr optimizer_;
};

}  // namespace eco::chronus
