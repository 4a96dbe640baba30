#include "deploy.hpp"

#include "common.hpp"
#include "plugin/job_submit_eco.hpp"
#include "spans.hpp"
#include "sysinfo/simple_hash.hpp"

namespace ecobench {

namespace chronus = eco::chronus;
using eco::Result;

namespace {

// Appends the time each call returns to `ends` (when set).
class CallEnds {
 public:
  explicit CallEnds(std::vector<std::int64_t>* ends) : ends_(ends) {}

 protected:
  template <typename Call>
  auto Record(Call call) const {
    auto result = call();
    if (ends_ != nullptr) ends_->push_back(NowNs());
    return result;
  }

 private:
  std::vector<std::int64_t>* ends_;
};

class TimedRepository final : public chronus::RepositoryInterface,
                              private CallEnds {
 public:
  TimedRepository(chronus::RepositoryPtr inner,
                  std::vector<std::int64_t>* ends)
      : CallEnds(ends), inner_(std::move(inner)) {}

  Result<int> SaveSystem(const chronus::SystemRecord& system) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->SaveSystem(system); });
  }
  Result<chronus::SystemRecord> GetSystem(int id) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->GetSystem(id); });
  }
  Result<chronus::SystemRecord> FindSystemByHash(
      const std::string& hash) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->FindSystemByHash(hash); });
  }
  Result<std::vector<chronus::SystemRecord>> ListSystems() override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->ListSystems(); });
  }
  Result<int> SaveBenchmark(const chronus::BenchmarkRecord& record) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->SaveBenchmark(record); });
  }
  Result<std::vector<chronus::BenchmarkRecord>> ListBenchmarks(
      int system_id) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->ListBenchmarks(system_id); });
  }
  Result<int> SaveModelMeta(const chronus::ModelMeta& meta) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->SaveModelMeta(meta); });
  }
  Result<chronus::ModelMeta> GetModelMeta(int id) override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->GetModelMeta(id); });
  }
  Result<std::vector<chronus::ModelMeta>> ListModels() override {
    Scope scope("storage.repo", Layer::kStorage);
    return Record([&] { return inner_->ListModels(); });
  }

 private:
  chronus::RepositoryPtr inner_;
};

class TimedBlobs final : public chronus::FileRepositoryInterface,
                         private CallEnds {
 public:
  TimedBlobs(chronus::FileRepositoryPtr inner, std::vector<std::int64_t>* ends)
      : CallEnds(ends), inner_(std::move(inner)) {}

  Result<std::string> Save(const std::string& name,
                           const std::string& content) override {
    Scope scope("storage.blob", Layer::kStorage);
    return Record([&] { return inner_->Save(name, content); });
  }
  Result<std::string> Load(const std::string& path) override {
    Scope scope("storage.blob", Layer::kStorage);
    return Record([&] { return inner_->Load(path); });
  }

 private:
  chronus::FileRepositoryPtr inner_;
};

// The simulated runner's time is the node simulator's (one HPCG job run to
// completion on the deployment's cluster), less the scheduler share its
// cluster's counters report.
class TimedRunner final : public chronus::ApplicationRunnerInterface,
                          private CallEnds {
 public:
  TimedRunner(chronus::RunnerPtr inner,
              eco::telemetry::MetricsRegistry& registry,
              std::vector<std::int64_t>* ends)
      : CallEnds(ends), inner_(std::move(inner)), clock_(registry) {}

  [[nodiscard]] std::string application() const override {
    return inner_->application();
  }
  [[nodiscard]] std::string binary_hash() const override {
    return inner_->binary_hash();
  }
  Result<chronus::RunResult> Run(const chronus::Configuration& config) override {
    SimScope scope("chronus.runner", &clock_);
    return Record([&] { return inner_->Run(config); });
  }
  [[nodiscard]] int max_concurrency() const override {
    return inner_->max_concurrency();
  }

 private:
  chronus::RunnerPtr inner_;
  SchedClock clock_;
};

std::shared_ptr<chronus::ChronusGateway> TimedGateway(
    const chronus::ChronusGateway& inner) {
  auto gateway = std::make_shared<chronus::ChronusGateway>();
  gateway->slurm_config = [call = inner.slurm_config](
                              const std::string& system_hash,
                              const std::string& binary_hash) {
    Scope scope("chronus.slurm_config", Layer::kChronus);
    return call(system_hash, binary_hash);
  };
  gateway->system_hash = [call = inner.system_hash] {
    Scope scope("chronus.system_hash", Layer::kChronus);
    return call();
  };
  gateway->state = [call = inner.state] {
    Scope scope("chronus.state", Layer::kChronus);
    return call();
  };
  return gateway;
}

int TimedJobSubmit(job_desc_msg_t* job_desc, uint32_t submit_uid,
                   char** err_msg) {
  Scope scope("plugin.job_submit", Layer::kPlugin);
  return eco::plugin::EcoPluginOps()->job_submit(job_desc, submit_uid,
                                                 err_msg);
}

int TimedJobModify(job_desc_msg_t* job_desc, uint32_t submit_uid,
                   char** err_msg) {
  Scope scope("plugin.job_submit", Layer::kPlugin);
  return eco::plugin::EcoPluginOps()->job_modify(job_desc, submit_uid,
                                                 err_msg);
}

// The product's ops table with the two entry points timed; same plugin
// type, so the registry treats it as the eco plugin itself.
const job_submit_plugin_ops_t* TimedPluginOps() {
  static const job_submit_plugin_ops_t ops = [] {
    job_submit_plugin_ops_t timed = *eco::plugin::EcoPluginOps();
    timed.job_submit = TimedJobSubmit;
    timed.job_modify = TimedJobModify;
    return timed;
  }();
  return &ops;
}

}  // namespace

chronus::ChronusEnv MakeDeployment(const DeploymentOptions& options) {
  chronus::EnvOptions env_options;
  env_options.workdir = options.workdir;
  env_options.repository = options.repository;
  env_options.runner = options.runner;
  env_options.cluster.pool = options.pool;
  chronus::ChronusEnv env = chronus::MakeSimEnv(env_options);
  if (!options.traced && options.call_ends == nullptr) return env;

  auto repository =
      std::make_shared<TimedRepository>(env.repository, options.call_ends);
  auto blobs = std::make_shared<TimedBlobs>(env.blobs, options.call_ends);
  auto runner = std::make_shared<TimedRunner>(
      env.runner, env.cluster->metrics(), options.call_ends);
  env.repository = repository;
  env.blobs = blobs;
  env.benchmark = std::make_shared<chronus::BenchmarkService>(
      repository, runner, env.system_info);
  env.init_model =
      std::make_shared<chronus::InitModelService>(repository, blobs);
  env.load_model = std::make_shared<chronus::LoadModelService>(
      repository, blobs, env.local);
  if (options.traced) env.gateway = TimedGateway(*env.gateway);
  return env;
}

Result<BuiltModel> BuildModel(
    chronus::ChronusEnv& env,
    const std::vector<chronus::Configuration>& configs,
    std::uint64_t request) {
  BuiltModel out;
  {
    Scope scope("chronus.sweep", Layer::kChronus, request);
    auto sweep = env.benchmark->Run(configs);
    if (!sweep.ok()) return Result<BuiltModel>::Error("sweep: " + sweep.message());
    out.sweep = std::move(*sweep);
  }
  {
    // Self time after the storage decorators' children: fit + pack.
    Scope scope("chronus.init_model", Layer::kMl, request);
    auto meta = env.init_model->Run(
        "random-tree", env.benchmark->last_system_id(), env.cluster->Now());
    if (!meta.ok()) return Result<BuiltModel>::Error("init-model: " + meta.message());
    out.meta = *meta;
  }
  {
    Scope scope("chronus.preload", Layer::kChronus, request);
    auto path = env.load_model->Run(out.meta.id);
    if (!path.ok()) return Result<BuiltModel>::Error("preload: " + path.message());
  }
  {
    Scope scope("chronus.first_predict", Layer::kChronus, request);
    auto json = env.slurm_config->Run(
        eco::sysinfo::HashToString(env.procfs->SystemHash()),
        env.runner->binary_hash());
    if (!json.ok()) return Result<BuiltModel>::Error("predict: " + json.message());
    auto parsed = eco::Json::Parse(*json);
    if (!parsed.ok()) return Result<BuiltModel>::Error("predict: " + parsed.message());
    auto decision = chronus::Configuration::FromJson(*parsed);
    if (!decision.ok()) {
      return Result<BuiltModel>::Error("predict: " + decision.message());
    }
    out.decision = *decision;
  }
  return out;
}

eco::Status AttachPlugin(chronus::ChronusEnv& env,
                         eco::slurm::ClusterSim& cluster, bool traced) {
  eco::plugin::SetChronusGateway(env.gateway);
  return cluster.plugins().Load(traced ? TimedPluginOps()
                                       : eco::plugin::EcoPluginOps());
}

void DetachPlugin(eco::slurm::ClusterSim& cluster) {
  cluster.plugins().Unload("job_submit/eco");
  eco::plugin::SetChronusGateway(nullptr);
}

}  // namespace ecobench
