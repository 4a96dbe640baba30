// A Chronus deployment for the benchmark, and the wrappers the traced run
// installs around the product's public interfaces:
//
//  - timing decorators on RepositoryInterface ("storage.repo"),
//    FileRepositoryInterface ("storage.blob") and ApplicationRunnerInterface
//    ("chronus.runner"), with the services rebuilt over them (untraced too,
//    when the caller asks for the time each call returns);
//  - a ChronusGateway whose callables time the ones Wire() built
//    ("chronus.state", "chronus.system_hash", "chronus.slurm_config");
//  - a job_submit_plugin_ops_t around EcoPluginOps() ("plugin.job_submit").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chronus/env.hpp"
#include "common/thread_pool.hpp"
#include "slurm/plugin_api.h"

namespace ecobench {

struct DeploymentOptions {
  std::string workdir;  // the deployment's private on-disk state
  eco::chronus::RepositoryKind repository = eco::chronus::RepositoryKind::kMemory;
  eco::chronus::SimulatedRunnerOptions runner{};
  eco::ThreadPool* pool = nullptr;
  bool traced = false;
  // When set, the time every repository, blob storage and runner call
  // returns is appended here, in order.
  std::vector<std::int64_t>* call_ends = nullptr;
};

eco::chronus::ChronusEnv MakeDeployment(const DeploymentOptions& options);

// The admin's offline path for one application: benchmark sweep, a
// random-tree fit, preload, then the first slurm-config query.
struct BuiltModel {
  std::vector<eco::chronus::BenchmarkRecord> sweep;
  eco::chronus::ModelMeta meta;
  eco::chronus::Configuration decision;  // the first query's answer
};
eco::Result<BuiltModel> BuildModel(
    eco::chronus::ChronusEnv& env,
    const std::vector<eco::chronus::Configuration>& configs,
    std::uint64_t request);

// Points the (process-global) eco plugin at `env` and loads it into
// `cluster`: the timing wrappers when `traced`, the product ops otherwise.
eco::Status AttachPlugin(eco::chronus::ChronusEnv& env,
                         eco::slurm::ClusterSim& cluster, bool traced);
void DetachPlugin(eco::slurm::ClusterSim& cluster);

// The hpcg srun line the paper's jobs carry; the default runner benchmarks
// this binary, so its model is the one opted-in hpcg jobs resolve to.
inline constexpr const char* kHpcgScript =
    "#!/bin/bash\nsrun --mpi=pmix_v4 ../hpcg/build/bin/xhpcg\n";

}  // namespace ecobench
