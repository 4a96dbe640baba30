// Chronus integration interfaces (§3.2, Figure 5).
//
// Each interface is owned by the application layer; implementations live in
// the outer System Integrations ring and are injected at the entry point
// (Dependency Inversion, §4.1 Listing 1). The seven interfaces mirror the
// paper's Figure 5: Repository, Optimizer, Application Runner, Local
// Storage, System Service, System Info, File Repository.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "chronus/domain.hpp"

namespace eco::chronus {

// ----- Repository: metadata persistence (CSV file / MiniDb implementations).
class RepositoryInterface {
 public:
  virtual ~RepositoryInterface() = default;

  virtual Result<int> SaveSystem(const SystemRecord& system) = 0;
  virtual Result<SystemRecord> GetSystem(int id) = 0;
  virtual Result<SystemRecord> FindSystemByHash(const std::string& hash) = 0;
  virtual Result<std::vector<SystemRecord>> ListSystems() = 0;

  virtual Result<int> SaveBenchmark(const BenchmarkRecord& benchmark) = 0;
  virtual Result<std::vector<BenchmarkRecord>> ListBenchmarks(int system_id) = 0;

  virtual Result<int> SaveModelMeta(const ModelMeta& meta) = 0;
  virtual Result<ModelMeta> GetModelMeta(int id) = 0;
  virtual Result<std::vector<ModelMeta>> ListModels() = 0;
};

// ----- Optimizer: the energy-efficiency prediction model.
class OptimizerInterface {
 public:
  virtual ~OptimizerInterface() = default;

  // Stable type string ("brute-force", "linear-regression", "random-tree")
  // used by the ModelFactory to round-trip models (§4.1 Listing 2).
  [[nodiscard]] virtual std::string type() const = 0;

  virtual Status Train(const std::vector<BenchmarkRecord>& benchmarks) = 0;
  // Predicted GFLOPS/W for a configuration.
  virtual Result<double> Predict(const Configuration& config) const = 0;
  // Scores every candidate in one call: out[i] is candidate i's prediction,
  // scored[i] whether it could be scored at all (brute force cannot score an
  // unmeasured configuration). Per-candidate results match Predict exactly;
  // this default just loops it, while the learned optimizers override with a
  // batched engine (one feature matrix, one pass) whose output is bitwise
  // identical to the serial loop (ml/forest_inference.hpp).
  virtual Status PredictBatch(const std::vector<Configuration>& candidates,
                              std::vector<double>* out,
                              std::vector<bool>* scored) const {
    out->assign(candidates.size(), 0.0);
    scored->assign(candidates.size(), false);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Result<double> value = Predict(candidates[i]);
      if (!value.ok()) continue;
      (*out)[i] = *value;
      (*scored)[i] = true;
    }
    return Status::Ok();
  }
  // argmax of Predict over the candidates.
  virtual Result<Configuration> BestConfiguration(
      const std::vector<Configuration>& candidates) const = 0;

  [[nodiscard]] virtual Json Serialize() const = 0;
  virtual Status Deserialize(const Json& json) = 0;
};

// ----- Application Runner: executes one benchmark run at a configuration.
struct RunResult {
  double gflops = 0.0;
  double duration_s = 0.0;
  double system_kilojoules = 0.0;
  double cpu_kilojoules = 0.0;
  double avg_system_watts = 0.0;
  double avg_cpu_watts = 0.0;
  double avg_cpu_temp = 0.0;
  std::size_t power_samples = 0;
};

class ApplicationRunnerInterface {
 public:
  virtual ~ApplicationRunnerInterface() = default;
  [[nodiscard]] virtual std::string application() const = 0;
  [[nodiscard]] virtual std::string binary_hash() const = 0;
  virtual Result<RunResult> Run(const Configuration& config) = 0;
  // How many Run() calls may safely be in flight at once. 1 (the default)
  // keeps the sweep serial — right for stateful runners like the cluster
  // simulator, whose runs share a clock and BMC. Runners whose Run() is
  // reentrant (e.g. pure-compute or per-run-state runners) can return more
  // and BenchmarkService will fan the sweep out across its thread pool.
  [[nodiscard]] virtual int max_concurrency() const { return 1; }
};

// ----- System Service: telemetry sampling (IPMI implementation).
struct TelemetrySample {
  double system_watts = 0.0;
  double cpu_watts = 0.0;
  double cpu_temp = 0.0;
};

class SystemServiceInterface {
 public:
  virtual ~SystemServiceInterface() = default;
  virtual Result<TelemetrySample> Sample() = 0;
};

// ----- System Info: identity of the machine (lscpu implementation).
class SystemInfoInterface {
 public:
  virtual ~SystemInfoInterface() = default;
  virtual Result<SystemRecord> Gather() = 0;
};

// ----- Local Storage: settings + pre-loaded model files (ETC storage).
class LocalStorageInterface {
 public:
  virtual ~LocalStorageInterface() = default;
  // A mutable copy of the settings document.
  virtual Result<Json> LoadSettings() = 0;
  // The same document, shared instead of copied: the read path for callers
  // that only look (the plugin's per-submit state check).
  virtual Result<std::shared_ptr<const Json>> SettingsSnapshot() = 0;
  virtual Status SaveSettings(const Json& settings) = 0;
  // Resolves a relative name into a full path under the storage root.
  [[nodiscard]] virtual std::string ResolvePath(const std::string& name) const = 0;
  virtual Status WriteFile(const std::string& name, const std::string& data) = 0;
  virtual Result<std::string> ReadFile(const std::string& name) = 0;
};

// ----- File Repository: blob storage for serialized optimizers.
class FileRepositoryInterface {
 public:
  virtual ~FileRepositoryInterface() = default;
  // Stores the blob, returning its repository path.
  virtual Result<std::string> Save(const std::string& name,
                                   const std::string& content) = 0;
  virtual Result<std::string> Load(const std::string& path) = 0;
};

using RepositoryPtr = std::shared_ptr<RepositoryInterface>;
using OptimizerPtr = std::shared_ptr<OptimizerInterface>;
using RunnerPtr = std::shared_ptr<ApplicationRunnerInterface>;
using SystemServicePtr = std::shared_ptr<SystemServiceInterface>;
using SystemInfoPtr = std::shared_ptr<SystemInfoInterface>;
using LocalStoragePtr = std::shared_ptr<LocalStorageInterface>;
using FileRepositoryPtr = std::shared_ptr<FileRepositoryInterface>;

}  // namespace eco::chronus
