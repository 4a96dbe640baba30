// chronus — the paper's CLI (§3.3), driving a simulated single-node cluster
// with on-disk state so the full workflow survives process restarts:
//
//   chronus [--workdir DIR] benchmark [HPCG_PATH] [--configurations FILE]
//   chronus [--workdir DIR] init-model --model TYPE [--system ID]
//   chronus [--workdir DIR] load-model --model ID
//   chronus [--workdir DIR] slurm-config SYSTEM_HASH BINARY_HASH
//   chronus [--workdir DIR] set (database|blob-storage|state) VALUE
//   chronus [--workdir DIR] systems | models
//
// The default workdir is ./chronus-data: database in data.db (MiniDb, the
// SQLite stand-in), serialized optimizers under optimizers/, settings under
// etc/chronus/settings.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "chronus/env.hpp"
#include "common/telemetry/timeseries.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/commands.hpp"
#include "slurm/energy_ledger.hpp"
#include "slurm/ingress.hpp"
#include "slurm/rpc/client.hpp"
#include "slurm/rpc/subd.hpp"
#include "slurm/workload_gen.hpp"
#include "chronus/evaluation.hpp"
#include "chronus/report.hpp"
#include "chronus/optimizers.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

using namespace eco;

void PrintUsage() {
  std::printf(
      "usage: chronus [--workdir DIR] [--fast] COMMAND [ARGS]\n\n"
      "commands:\n"
      "  benchmark [HPCG_PATH] [--configurations FILE] [--resume]\n"
      "      Runs benchmarks on different configurations (all configurations\n"
      "      of the system CPU when no file is given). With --resume,\n"
      "      configurations already in the database are skipped.\n"
      "  init-model --model [brute-force|linear-regression|random-tree]\n"
      "             [--system ID]\n"
      "      Initializes the prediction model.\n"
      "  load-model --model ID\n"
      "      Pre-loads a trained model to local storage.\n"
      "  slurm-config SYSTEM_HASH BINARY_HASH\n"
      "      Prints the energy-efficient configuration as JSON (called by\n"
      "      job_submit_eco, not usually by users).\n"
      "  evaluate --model TYPE --system ID [--folds K]\n"
      "      Cross-validates a model type on a system's benchmarks.\n"
      "  set database PATH | set blob-storage PATH |\n"
      "  set state [active|user|deactivated]\n"
      "      Changes the plugin configuration.\n"
      "  systems | models\n"
      "      Lists known systems / trained models.\n"
      "  report --system ID [--out FILE]\n"
      "      Writes a markdown energy report for a system.\n"
      "  demo\n"
      "      End-to-end tour: benchmark, train, pre-load, enable the plugin,\n"
      "      submit a job array, and show squeue/scontrol/sreport output.\n"
      "  obsd [--port N] [--jobs N] [--duration-s S]\n"
      "      Runs a workload on a small simulated cluster with the\n"
      "      observability plane attached, then serves /metrics, /sdiag,\n"
      "      /timeseries and /healthz over HTTP (on a subd whose ingress is\n"
      "      closed) on 127.0.0.1 for S seconds\n"
      "      (default 30; port 0 = ephemeral, printed on stdout).\n"
      "  subd [--port N] [--shards N] [--duration-s S] [--window-s W]\n"
      "      Runs the binary-RPC submit front door: accepts submit batches\n"
      "      over TCP for S seconds, then drains everything admitted into a\n"
      "      simulated cluster (one ingress-drain pass per W sim-seconds)\n"
      "      and runs it to completion. The same port answers GET /metrics\n"
      "      and /sdiag while serving.\n"
      "  storm --net [--address A] --port N [--jobs N] [--connections C]\n"
      "        [--batch B] [--pipeline D]\n"
      "      Network submit storm against a running subd: N generated jobs\n"
      "      split over C connections, B requests per frame, up to D frames\n"
      "      in flight per connection.\n\n"
      "options:\n"
      "  --workdir DIR   state directory (default ./chronus-data)\n"
      "  --fast          5-minute simulated benchmark runs instead of ~18.5 min\n");
}

struct Args {
  std::string workdir = "./chronus-data";
  bool fast = false;
  std::string command;
  std::vector<std::string> rest;

  std::string Flag(const std::string& name, std::string fallback = "") const {
    for (std::size_t i = 0; i + 1 < rest.size(); ++i) {
      if (rest[i] == name) return rest[i + 1];
    }
    return fallback;
  }
  std::string Positional(std::size_t index, std::string fallback = "") const {
    std::size_t seen = 0;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      if (StartsWith(rest[i], "--")) {
        ++i;  // skip the flag's value
        continue;
      }
      if (seen++ == index) return rest[i];
    }
    return fallback;
  }
};

chronus::ChronusEnv MakeEnv(const Args& args) {
  chronus::EnvOptions options;
  options.workdir = args.workdir;
  options.repository = chronus::RepositoryKind::kMiniDb;
  options.runner.target_seconds = args.fast ? 300.0 : 1109.0;
  return chronus::MakeSimEnv(options);
}

int CmdBenchmark(const Args& args) {
  auto env = MakeEnv(args);
  std::vector<chronus::Configuration> configs;
  const std::string config_file = args.Flag("--configurations");
  if (!config_file.empty()) {
    auto text = chronus::ReadWholeFile(config_file);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.message().c_str());
      return 1;
    }
    auto parsed = chronus::ParseConfigurationsFile(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
      return 1;
    }
    configs = *parsed;
  }
  const bool resume =
      std::find(args.rest.begin(), args.rest.end(), "--resume") != args.rest.end();
  std::size_t skipped = 0;
  auto records = resume ? env.benchmark->Resume(configs, &skipped)
                        : env.benchmark->Run(configs);
  if (!records.ok()) {
    std::fprintf(stderr, "error: %s\n", records.message().c_str());
    return 1;
  }
  if (resume && skipped > 0) {
    std::printf("skipped %zu already-measured configuration(s)\n", skipped);
  }
  ECO_INFO << "Run data has been saved to " << args.workdir << "/data.db.";
  TextTable table({"cores", "GHz", "tpc", "GFLOPS", "avg W", "GFLOPS/W"});
  for (const auto& b : *records) {
    table.AddRow({std::to_string(b.config.cores), FormatDouble(KiloHertzToGHz(b.config.frequency), 1),
                  std::to_string(b.config.threads_per_core),
                  FormatDouble(b.gflops, 3), FormatDouble(b.avg_system_watts, 1),
                  FormatDouble(b.GflopsPerWatt(), 5)});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int PrintSystems(chronus::ChronusEnv& env) {
  auto systems = env.repository->ListSystems();
  if (!systems.ok()) {
    std::fprintf(stderr, "error: %s\n", systems.message().c_str());
    return 1;
  }
  if (systems->empty()) {
    std::printf("no systems in the database — run `chronus benchmark` first\n");
    return 0;
  }
  TextTable table({"id", "cpu", "cores", "tpc", "hash"});
  for (const auto& s : *systems) {
    table.AddRow({std::to_string(s.id), s.cpu_name, std::to_string(s.cores),
                  std::to_string(s.threads_per_core), s.system_hash});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int CmdInitModel(const Args& args) {
  auto env = MakeEnv(args);
  const std::string type = args.Flag("--model", "linear-regression");
  const std::string system_flag = args.Flag("--system", "-1");
  long long system_id = -1;
  ParseInt64(system_flag, system_id);
  if (system_id < 0) {
    // Like Figure 8: present the available systems.
    std::printf("Available systems:\n");
    PrintSystems(env);
    std::printf("Specify the system id with --system <id>\n");
    return 0;
  }
  auto meta = env.init_model->Run(type, static_cast<int>(system_id),
                                  static_cast<double>(std::time(nullptr)));
  if (!meta.ok()) {
    std::fprintf(stderr, "error: %s\n", meta.message().c_str());
    return 1;
  }
  std::printf("model %d of type %s trained; blob at %s\n", meta->id,
              meta->type.c_str(), meta->blob_path.c_str());
  return 0;
}

int PrintModels(chronus::ChronusEnv& env) {
  auto models = env.repository->ListModels();
  if (!models.ok()) {
    std::fprintf(stderr, "error: %s\n", models.message().c_str());
    return 1;
  }
  if (models->empty()) {
    std::printf("no models in the database — run `chronus init-model` first\n");
    return 0;
  }
  TextTable table({"id", "type", "system", "application", "blob"});
  for (const auto& m : *models) {
    table.AddRow({std::to_string(m.id), m.type, std::to_string(m.system_id),
                  m.application, m.blob_path});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int CmdLoadModel(const Args& args) {
  auto env = MakeEnv(args);
  const std::string model_flag = args.Flag("--model", "-1");
  long long model_id = -1;
  ParseInt64(model_flag, model_id);
  if (model_id < 0) {
    // Like Figure 9: present the available models.
    std::printf("Available Models:\n");
    PrintModels(env);
    std::printf("Specify the model id with --model <id>\n");
    return 0;
  }
  auto path = env.load_model->Run(static_cast<int>(model_id));
  if (!path.ok()) {
    std::fprintf(stderr, "error: %s\n", path.message().c_str());
    return 1;
  }
  std::printf("model pre-loaded to %s\n", path->c_str());
  return 0;
}

int CmdSlurmConfig(const Args& args) {
  auto env = MakeEnv(args);
  const std::string system_hash = args.Positional(0);
  const std::string binary_hash = args.Positional(1);
  if (system_hash.empty() || binary_hash.empty()) {
    std::fprintf(stderr, "usage: chronus slurm-config SYSTEM_HASH BINARY_HASH\n");
    std::fprintf(stderr, "hint: this machine's system hash is %s\n",
                 env.gateway->system_hash().c_str());
    std::fprintf(stderr, "      the HPCG runner's binary hash is %s\n",
                 env.runner->binary_hash().c_str());
    return 1;
  }
  auto json = env.slurm_config->Run(system_hash, binary_hash);
  if (!json.ok()) {
    std::fprintf(stderr, "error: %s\n", json.message().c_str());
    return 1;
  }
  std::printf("%s\n", json->c_str());
  return 0;
}

int CmdEvaluate(const Args& args) {
  auto env = MakeEnv(args);
  const std::string type = args.Flag("--model", "linear-regression");
  long long system_id = -1;
  ParseInt64(args.Flag("--system", "-1"), system_id);
  long long folds = 5;
  ParseInt64(args.Flag("--folds", "5"), folds);
  if (system_id < 0) {
    std::printf("Available systems:\n");
    PrintSystems(env);
    std::printf("Specify the system id with --system <id>\n");
    return 0;
  }
  auto benchmarks = env.repository->ListBenchmarks(static_cast<int>(system_id));
  if (!benchmarks.ok()) {
    std::fprintf(stderr, "error: %s\n", benchmarks.message().c_str());
    return 1;
  }
  auto evaluation = chronus::EvaluateModel(type, *benchmarks,
                                           static_cast<int>(folds));
  if (!evaluation.ok()) {
    std::fprintf(stderr, "error: %s\n", evaluation.message().c_str());
    return 1;
  }
  std::printf("model %s on system %lld: %d-fold CV over %zu benchmarks\n",
              type.c_str(), system_id, evaluation->folds, evaluation->samples);
  std::printf("  out-of-fold R^2:   %.4f\n", evaluation->r_squared);
  std::printf("  out-of-fold RMSE:  %.5f GFLOPS/W\n", evaluation->rmse);
  std::printf("  mean pick regret:  %.2f%%\n", evaluation->mean_regret * 100.0);
  return 0;
}

int CmdSet(const Args& args) {
  auto env = MakeEnv(args);
  const std::string key = args.Positional(0);
  const std::string value = args.Positional(1);
  if (key.empty() || value.empty()) {
    std::fprintf(stderr,
                 "usage: chronus set (database|blob-storage|state) VALUE\n");
    return 1;
  }
  Status status;
  if (key == "database") {
    status = env.settings->SetDatabasePath(value);
  } else if (key == "blob-storage") {
    status = env.settings->SetBlobStoragePath(value);
  } else if (key == "state") {
    chronus::PluginState state;
    if (!chronus::ParsePluginState(value, state)) {
      std::fprintf(stderr, "error: state must be active|user|deactivated\n");
      return 1;
    }
    status = env.settings->SetState(state);
  } else {
    std::fprintf(stderr, "error: unknown setting '%s'\n", key.c_str());
    return 1;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("%s set\n", key.c_str());
  return 0;
}

int CmdReport(const Args& args) {
  auto env = MakeEnv(args);
  long long system_id = -1;
  ParseInt64(args.Flag("--system", "-1"), system_id);
  if (system_id < 0) {
    std::printf("Available systems:\n");
    PrintSystems(env);
    std::printf("Specify the system id with --system <id>\n");
    return 0;
  }
  auto report = chronus::GenerateSystemReport(*env.repository,
                                              static_cast<int>(system_id));
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.message().c_str());
    return 1;
  }
  const std::string out_path = args.Flag("--out");
  if (out_path.empty()) {
    std::printf("%s", report->c_str());
    return 0;
  }
  const Status written = chronus::WriteWholeFile(out_path, *report);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.message().c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}

int CmdDemo(const Args& args) {
  Args fast = args;
  fast.fast = true;
  auto env = MakeEnv(fast);

  std::printf("== 1/4 benchmark sweep (resumable) ==\n");
  const std::vector<chronus::Configuration> sweep = {
      {32, 1, kHz(2'200'000)}, {32, 2, kHz(2'200'000)},
      {32, 1, kHz(2'500'000)}, {32, 2, kHz(2'500'000)},
      {32, 1, kHz(1'500'000)}, {16, 1, kHz(2'200'000)},
  };
  std::size_t skipped = 0;
  auto records = env.benchmark->Resume(sweep, &skipped);
  if (!records.ok()) {
    std::fprintf(stderr, "error: %s\n", records.message().c_str());
    return 1;
  }
  std::printf("measured %zu configurations (%zu already in the database)\n\n",
              records->size(), skipped);

  std::printf("== 2/4 train + pre-load a model ==\n");
  auto meta = env.init_model->Run("brute-force",
                                  env.benchmark->last_system_id(),
                                  static_cast<double>(std::time(nullptr)));
  if (!meta.ok()) {
    std::fprintf(stderr, "error: %s\n", meta.message().c_str());
    return 1;
  }
  auto preloaded = env.load_model->Run(meta->id);
  if (!preloaded.ok()) {
    std::fprintf(stderr, "error: %s\n", preloaded.message().c_str());
    return 1;
  }
  std::printf("model %d pre-loaded\n\n", meta->id);

  std::printf("== 3/4 enable job_submit_eco, submit a 3-task job array ==\n");
  plugin::SetChronusGateway(env.gateway);
  if (!env.cluster->plugins().Load(plugin::EcoPluginOps()).ok()) return 1;
  slurm::JobRequest request;
  request.name = "users-hpcg";
  request.num_tasks = 32;
  request.threads_per_core = 2;
  request.comment = "chronus";
  request.script = "srun --mpi=pmix_v4 ../hpcg/build/bin/xhpcg\n";
  request.workload = slurm::WorkloadSpec::Fixed(180.0, 0.95);
  request.time_limit_s = 1200.0;
  auto ids = env.cluster->SubmitArray(request, 3);
  if (!ids.ok()) {
    std::fprintf(stderr, "error: %s\n", ids.message().c_str());
    return 1;
  }
  env.cluster->RunUntil(env.cluster->Now() + 10.0);
  std::printf("$ squeue\n%s\n", slurm::Squeue(*env.cluster).c_str());
  std::printf("$ scontrol show job %u\n%s\n", ids->front(),
              slurm::ScontrolShowJob(*env.cluster, ids->front()).c_str());
  env.cluster->RunUntilIdle();

  std::printf("== 4/4 accounting ==\n");
  std::printf("$ sreport user energy\n%s\n",
              slurm::SreportUserEnergy(env.cluster->accounting()).c_str());
  const auto first = env.cluster->GetJob(ids->front());
  if (first) {
    std::printf("the plugin pinned the array to %d tasks @ %.1f GHz, "
                "%d thread(s)/core\n",
                first->request.num_tasks,
                KiloHertzToGHz(first->request.cpu_freq_max),
                first->request.threads_per_core);
  }
  env.cluster->plugins().Unload("job_submit/eco");
  plugin::SetChronusGateway(nullptr);
  return 0;
}

int CmdObsd(const Args& args) {
  long long port = 0;
  long long jobs = 200;
  long long duration_s = 30;
  ParseInt64(args.Flag("--port", "0"), port);
  ParseInt64(args.Flag("--jobs", "200"), jobs);
  ParseInt64(args.Flag("--duration-s", "30"), duration_s);

  // A small cluster with the full observability plane attached: time-series
  // sampling, per-job energy attribution, and the HTTP endpoint on top.
  telemetry::TimeSeriesStore store;
  slurm::EnergyLedger ledger;
  slurm::ClusterConfig config;
  config.nodes = 8;
  config.timeseries = &store;
  config.timeseries_resolution_s = 10.0;
  config.energy_ledger = &ledger;
  slurm::ClusterSim cluster(config);

  slurm::WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.users = 8;
  mix.seed = 20'260'808;
  auto generated = slurm::GenerateWorkload(
      mix, static_cast<int>(std::max<long long>(1, jobs)),
      config.node.machine.cpu.cores, 1);
  std::vector<slurm::JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));
  cluster.SubmitBatch(std::move(requests));
  cluster.RunUntilIdle();
  cluster.FlushIdleEnergy();

  // The routes ride on subd; its ingress is closed, so a stray submit
  // frame gets a kClosed verdict instead of reaching the finished run.
  slurm::SubmitIngress ingress{slurm::IngressConfig{}};
  ingress.Close();
  slurm::rpc::SubdConfig server_config;
  server_config.port = static_cast<std::uint16_t>(port);
  server_config.ingress = &ingress;
  server_config.metrics = &cluster.metrics();
  server_config.timeseries = &store;
  server_config.cluster = &cluster;
  slurm::rpc::SubdServer server(std::move(server_config));
  const Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("obsd listening on http://127.0.0.1:%u (%lld s)\n",
              server.port(), duration_s);
  std::fflush(stdout);
  for (long long elapsed_ms = 0; elapsed_ms < duration_s * 1000;
       elapsed_ms += 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  return 0;
}

int CmdSubd(const Args& args) {
  long long port = 0;
  long long shards = 2;
  long long duration_s = 30;
  ParseInt64(args.Flag("--port", "0"), port);
  ParseInt64(args.Flag("--shards", "2"), shards);
  ParseInt64(args.Flag("--duration-s", "30"), duration_s);
  const double window_s = std::atof(args.Flag("--window-s", "1").c_str());

  slurm::ClusterConfig config;
  config.nodes = 8;
  config.defer_dispatch = true;
  slurm::ClusterSim cluster(config);

  // Ingress and RPC metrics both land in the cluster registry, so the
  // sdiag "Ingress front door" / "RPC front door" sections light up.
  slurm::IngressConfig ingress_config;
  ingress_config.metrics = &cluster.metrics();
  slurm::SubmitIngress ingress(ingress_config);

  slurm::rpc::SubdConfig server_config;
  server_config.port = static_cast<std::uint16_t>(port);
  server_config.shards = static_cast<int>(std::max<long long>(1, shards));
  server_config.ingress = &ingress;
  server_config.metrics = &cluster.metrics();
  // GET /sdiag on this port is safe while serving: the sim stays parked
  // until Stop().
  server_config.cluster = &cluster;
  slurm::rpc::SubdServer server(std::move(server_config));
  const Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("subd listening on 127.0.0.1:%u (%lld s, %lld shards)\n",
              server.port(), duration_s, shards);
  std::fflush(stdout);
  for (long long elapsed_ms = 0; elapsed_ms < duration_s * 1000;
       elapsed_ms += 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();

  // Everything admitted while serving now flows into the sim through the
  // PumpWorkload ingress weave; Close() first so the drain task cancels
  // itself once the backlog is gone and RunUntilIdle can terminate.
  ingress.Close();
  slurm::PumpOptions pump_options;
  pump_options.ingress = &ingress;
  pump_options.ingress_window_s = window_s;
  const auto stats = slurm::PumpWorkload(cluster, {}, pump_options);
  cluster.RunUntilIdle();

  const auto counter = [&](const char* name) -> std::uint64_t {
    const telemetry::Counter* c = cluster.metrics().FindCounter(name);
    return c != nullptr ? c->Value() : 0;
  };
  std::printf("subd: %llu connections, %llu frames, %llu submits "
              "(%llu admitted, %llu decode errors)\n",
              static_cast<unsigned long long>(
                  counter("eco_rpc_connections_total")),
              static_cast<unsigned long long>(counter("eco_rpc_frames_total")),
              static_cast<unsigned long long>(counter("eco_rpc_submits_total")),
              static_cast<unsigned long long>(
                  counter("eco_rpc_admitted_total")),
              static_cast<unsigned long long>(
                  counter("eco_rpc_decode_errors_total")));
  std::printf("subd: drained %zu jobs into the sim\n", stats->ingress_drained);
  return 0;
}

int CmdStorm(const Args& args) {
  bool net = false;
  for (const std::string& token : args.rest) {
    if (token == "--net") net = true;
  }
  if (!net) {
    std::fprintf(stderr,
                 "storm: only --net mode exists (in-process storms live in "
                 "bench_p5_ingress_storm)\n");
    return 1;
  }
  const std::string address = args.Flag("--address", "127.0.0.1");
  long long port = 0;
  long long jobs = 1000;
  long long connections = 2;
  long long batch = 64;
  long long pipeline = 4;
  ParseInt64(args.Flag("--port", "0"), port);
  ParseInt64(args.Flag("--jobs", "1000"), jobs);
  ParseInt64(args.Flag("--connections", "2"), connections);
  ParseInt64(args.Flag("--batch", "64"), batch);
  ParseInt64(args.Flag("--pipeline", "4"), pipeline);
  if (port <= 0) {
    std::fprintf(stderr, "storm: --port is required\n");
    return 1;
  }
  jobs = std::max<long long>(1, jobs);
  connections = std::max<long long>(1, connections);
  batch = std::max<long long>(1, batch);
  pipeline = std::max<long long>(1, pipeline);

  slurm::WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.users = 8;
  mix.seed = 20'260'808;
  auto generated = slurm::GenerateWorkload(mix, static_cast<int>(jobs),
                                           /*max_cores=*/28, 1);
  std::vector<slurm::JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));

  // Contiguous per-connection slices; every record carries its global
  // stream index as the wire seq, so the server-side drain re-assembles
  // the exact serial order no matter how the connections race.
  struct ConnTally {
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t rejected = 0;
    bool failed = false;
  };
  std::vector<ConnTally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const std::size_t total = requests.size();
  const std::size_t per_conn =
      (total + static_cast<std::size_t>(connections) - 1) /
      static_cast<std::size_t>(connections);
  for (long long c = 0; c < connections; ++c) {
    const std::size_t begin =
        std::min(total, static_cast<std::size_t>(c) * per_conn);
    const std::size_t end = std::min(total, begin + per_conn);
    threads.emplace_back([&, begin, end,
                          tally = &tallies[static_cast<std::size_t>(c)]] {
      slurm::rpc::SubmitClient client;
      if (!client.Connect(address, static_cast<std::uint16_t>(port)).ok()) {
        tally->failed = true;
        return;
      }
      std::vector<slurm::rpc::SubmitReplyEntry> replies;
      const auto absorb = [&]() -> bool {
        if (!client.ReadReply(&replies).ok()) return false;
        for (const auto& entry : replies) {
          if (entry.ok()) {
            ++tally->ok;
          } else {
            ++tally->rejected;
          }
        }
        return true;
      };
      std::size_t outstanding = 0;
      for (std::size_t at = begin; at < end;
           at += static_cast<std::size_t>(batch)) {
        const std::size_t n =
            std::min(static_cast<std::size_t>(batch), end - at);
        if (!client.SendBatch(&requests[at], n, at).ok()) {
          tally->failed = true;
          return;
        }
        tally->sent += n;
        ++outstanding;
        if (outstanding >= static_cast<std::size_t>(pipeline)) {
          if (!absorb()) {
            tally->failed = true;
            return;
          }
          --outstanding;
        }
      }
      while (outstanding > 0) {
        if (!absorb()) {
          tally->failed = true;
          return;
        }
        --outstanding;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::size_t sent = 0, ok = 0, rejected = 0;
  bool failed = false;
  for (const ConnTally& tally : tallies) {
    sent += tally.sent;
    ok += tally.ok;
    rejected += tally.rejected;
    failed = failed || tally.failed;
  }
  std::printf("storm: sent %zu submits over %lld connections: %zu acked ok, "
              "%zu rejected\n",
              sent, connections, ok, rejected);
  if (failed) {
    std::fprintf(stderr, "storm: at least one connection failed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::Instance().SetLevel(LogLevel::kInfo);
  Args args;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workdir" && i + 1 < argc) {
      args.workdir = argv[++i];
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      args.command = arg;
      ++i;
      break;
    }
  }
  for (; i < argc; ++i) args.rest.emplace_back(argv[i]);

  if (args.command == "benchmark") return CmdBenchmark(args);
  if (args.command == "init-model") return CmdInitModel(args);
  if (args.command == "load-model") return CmdLoadModel(args);
  if (args.command == "slurm-config") return CmdSlurmConfig(args);
  if (args.command == "evaluate") return CmdEvaluate(args);
  if (args.command == "set") return CmdSet(args);
  if (args.command == "systems") {
    auto env = MakeEnv(args);
    return PrintSystems(env);
  }
  if (args.command == "models") {
    auto env = MakeEnv(args);
    return PrintModels(env);
  }
  if (args.command == "demo") return CmdDemo(args);
  if (args.command == "obsd") return CmdObsd(args);
  if (args.command == "subd") return CmdSubd(args);
  if (args.command == "storm") return CmdStorm(args);
  if (args.command == "report") return CmdReport(args);
  PrintUsage();
  return args.command.empty() ? 0 : 1;
}
