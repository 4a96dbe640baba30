// submit_eco / submit_plain: jobs travel the loopback wire through subd into
// SubmitIngress; the sim thread drains the ingress into coalesced
// ClusterSim::SubmitBatch calls (the job_submit plugin runs there) and
// advances the cluster with RunUntil.
//
// Phase A is an open loop: batch k is due at t0 + k*batch/rate whatever the
// system does, and a job's latency runs from when its batch was due to when
// SubmitBatch returned its job id (the sbatch-return point: the plugin has
// run and the job is queued). The sim clock is paced to wall time there.
// Phase B is a closed loop on admission replies (each connection keeps a
// fixed number of batches in flight) and measures jobs per second from the
// first send until every job has run to Completed. Admission replies do not
// wait for the sim thread, so it drains a growing backlog; it submits that
// in chunks of the loop's window, one tick after each.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "deploy.hpp"
#include "hpcg/perf_model.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"
#include "slurm/rpc/client.hpp"
#include "slurm/rpc/subd.hpp"
#include "workloads.hpp"

namespace ecobench {
namespace {

using namespace eco;
using namespace eco::slurm;

constexpr int kNodes = 1024;
constexpr double kTickSeconds = 60.0;
constexpr double kSimSecondsPerWallSecond = 1500.0;
constexpr std::size_t kBatch = 16;
constexpr int kClients = 2;   // one connection each
constexpr int kPipeline = 8;  // phase B batches in flight per connection
// Phase B's submit chunk: the jobs the closed loop keeps in flight.
constexpr std::size_t kChunk = kBatch * kPipeline * kClients;
constexpr double kHpcgSeconds = 120.0;  // hpcg job length at the reference

struct Shape {
  double rate;             // phase A jobs/s
  double open_seconds;     // phase A length
  std::uint64_t closed;    // phase B jobs
};

// One rep takes 3.5-5 s on a 4-vCPU Xeon VM, so a 30 s run holds six to
// eight reps: phase A gives 6 k (eco) and 25 k (plain) latency samples a
// rep, phase B a 30 k / 150 k job closed loop.
Shape ShapeFor(bool opted_in, bool smoke) {
  if (opted_in) return smoke ? Shape{6000, 0.25, 2000} : Shape{6000, 1.0, 30000};
  return smoke ? Shape{25000, 0.08, 2000} : Shape{25000, 1.0, 150000};
}

std::vector<JobRequest> MakeRequests(bool opted_in, std::uint64_t count,
                                     std::uint64_t seed, Digest& digest) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + (opted_in ? 1 : 2));
  const int iterations = hpcg::HpcgPerfModel().IterationsForDuration(
      hpcg::HpcgProblem::Official(), kHpcgSeconds);
  std::vector<JobRequest> requests(count);
  for (JobRequest& request : requests) {
    request.user_id = 1000 + static_cast<std::uint32_t>(rng.NextBounded(64));
    request.partition = rng.Chance(0.5) ? "p0" : "p1";
    request.time_limit_s = 3600.0;
    if (opted_in) {
      request.name = "hpcg";
      request.num_tasks = rng.UniformInt(8, 32);
      request.threads_per_core = rng.Chance(0.5) ? 2 : 1;
      request.comment = "chronus";
      request.script = kHpcgScript;
      request.workload =
          WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(), iterations);
    } else {
      request.name = "plain";
      request.num_tasks = rng.UniformInt(1, 8);
      request.workload = WorkloadSpec::Fixed(
          kTickSeconds * rng.UniformInt(1, 4), rng.Uniform(0.6, 0.95));
    }
    digest.Add(request.partition);
    digest.AddValue(request.user_id);
    digest.AddValue(request.num_tasks);
    digest.AddValue(request.threads_per_core);
    digest.AddValue(request.workload.fixed_duration_s);
    digest.AddValue(request.workload.fixed_utilization);
  }
  return requests;
}

ClusterConfig MakeClusterConfig(ThreadPool* pool,
                                telemetry::MetricsRegistry* registry) {
  ClusterConfig config;
  config.nodes = kNodes;
  config.node.tick_seconds = kTickSeconds;
  config.defer_dispatch = true;
  config.backfill_max_job_test = 100;
  config.pool = pool;
  config.metrics = registry;
  config.partitions.clear();
  for (int p = 0; p < 2; ++p) {
    PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    partition.is_default = p == 0;
    partition.node_ranges = {{p * kNodes / 2, (p + 1) * kNodes / 2 - 1}};
    config.partitions.push_back(partition);
  }
  return config;
}

// What the sim thread learns per seq: the job id SubmitBatch returned and
// when (SubmitBatch call, which in phase A follows the drain at once, and
// SubmitBatch return).
struct Book {
  explicit Book(std::uint64_t jobs)
      : job_of_seq(jobs, 0), drained_ns(jobs, 0), done_ns(jobs, 0) {}

  std::vector<JobId> job_of_seq;  // 0 = no job
  std::vector<std::int64_t> drained_ns;
  std::vector<std::int64_t> done_ns;
  std::uint64_t rejected = 0;      // SubmitBatch refused the job
  std::uint64_t duplicates = 0;    // a seq drained twice
  std::uint64_t out_of_range = 0;  // a seq nobody sent
};

// Drained jobs not yet submitted, oldest first: each drain's jobs as the
// ingress returned them (appending moves no job), and how many of the
// oldest drain's are already submitted.
struct Backlog {
  std::deque<std::vector<SubmitIngress::Pending>> drains;
  std::size_t next = 0;
  std::size_t jobs = 0;

  [[nodiscard]] std::size_t size() const { return jobs; }
};

// Moves what the ingress holds to the back of `backlog`.
void Drain(SubmitIngress& ingress, Backlog& backlog) {
  std::vector<SubmitIngress::Pending> drained;
  {
    Scope span("ingress.drain", Layer::kIngress);
    drained = ingress.Drain();
  }
  if (drained.empty()) return;
  backlog.jobs += drained.size();
  backlog.drains.push_back(std::move(drained));
}

// Submits the oldest `limit` jobs of `backlog` (all of them when it holds
// fewer) in one SubmitBatch. Returns the jobs submitted.
std::size_t SubmitOldest(Backlog& backlog, std::size_t limit,
                         ClusterSim& cluster, Book& book) {
  const std::size_t count = std::min(limit, backlog.size());
  if (count == 0) return 0;
  const std::int64_t drained = NowNs();
  std::vector<JobRequest> batch;
  std::vector<std::uint64_t> seqs;
  batch.reserve(count);
  seqs.reserve(count);
  while (batch.size() < count) {
    std::vector<SubmitIngress::Pending>& oldest = backlog.drains.front();
    SubmitIngress::Pending& entry = oldest[backlog.next++];
    batch.push_back(std::move(entry.request));
    seqs.push_back(entry.seq);
    if (backlog.next == oldest.size()) {
      backlog.drains.pop_front();
      backlog.next = 0;
    }
  }
  backlog.jobs -= count;
  std::vector<Result<JobId>> results;
  {
    Scope span("sched.submit_batch", Layer::kSched, seqs.front() + 1);
    results = cluster.SubmitBatch(std::move(batch));
  }
  const std::int64_t done = NowNs();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seq = seqs[i];
    if (seq >= book.job_of_seq.size()) {
      ++book.out_of_range;
    } else if (!results[i].ok()) {
      ++book.rejected;
    } else if (book.job_of_seq[seq] != 0) {
      ++book.duplicates;
    } else {
      book.job_of_seq[seq] = *results[i];
      book.drained_ns[seq] = drained;
      book.done_ns[seq] = done;
    }
  }
  return count;
}

struct ClientTally {
  std::uint64_t acked = 0;
  std::uint64_t refused = 0;
  bool transport_ok = true;
  std::int64_t lag_max_ns = 0;
  std::vector<double> rtt_us;
};

std::int64_t DueNs(std::int64_t t0, std::uint64_t batch, double rate) {
  return t0 + static_cast<std::int64_t>(static_cast<double>(batch * kBatch) /
                                        rate * 1e9);
}

void Absorb(const std::vector<rpc::SubmitReplyEntry>& replies,
            ClientTally& tally) {
  for (const auto& reply : replies) {
    if (reply.ok()) {
      ++tally.acked;
    } else {
      ++tally.refused;
    }
  }
}

// Phase A producer: connection `index` sends batches index, index+kClients,
// ... each when it is due, and waits for its admission reply.
void OpenLoopClient(rpc::SubmitClient& client,
                    const std::vector<JobRequest>& requests,
                    std::uint64_t jobs, int index, std::int64_t t0,
                    double rate, std::vector<std::int64_t>& reply_ns,
                    ClientTally& tally) {
  std::vector<rpc::SubmitReplyEntry> replies;
  const std::uint64_t batches = (jobs + kBatch - 1) / kBatch;
  for (std::uint64_t k = static_cast<std::uint64_t>(index); k < batches;
       k += kClients) {
    const std::int64_t due = DueNs(t0, k, rate);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::int64_t sent = NowNs();
    tally.lag_max_ns = std::max(tally.lag_max_ns, sent - due);
    const std::uint64_t first = k * kBatch;
    const std::size_t count = std::min<std::uint64_t>(kBatch, jobs - first);
    {
      Scope span("rpc.batch", Layer::kRpc, first + 1);
      if (!client.SendBatch(requests.data() + first, count, first).ok() ||
          !client.ReadReply(&replies).ok() || replies.size() != count) {
        tally.transport_ok = false;
        return;
      }
    }
    const std::int64_t now = NowNs();
    tally.rtt_us.push_back(static_cast<double>(now - sent) / 1e3);
    reply_ns[k] = now;
    Absorb(replies, tally);
  }
}

// Phase B producer: batches of seqs [first, first+jobs), this connection's
// share, with up to kPipeline in flight.
void ClosedLoopClient(rpc::SubmitClient& client,
                      const std::vector<JobRequest>& requests,
                      std::uint64_t first, std::uint64_t jobs, int index,
                      const std::atomic<bool>& go, ClientTally& tally) {
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<rpc::SubmitReplyEntry> replies;
  int outstanding = 0;
  const auto absorb_one = [&] {
    if (!client.ReadReply(&replies).ok()) return false;
    --outstanding;
    Absorb(replies, tally);
    return true;
  };
  const std::uint64_t batches = (jobs + kBatch - 1) / kBatch;
  for (std::uint64_t k = static_cast<std::uint64_t>(index); k < batches;
       k += kClients) {
    if (outstanding == kPipeline && !absorb_one()) {
      tally.transport_ok = false;
      return;
    }
    const std::uint64_t seq = first + k * kBatch;
    const std::size_t count = std::min<std::uint64_t>(kBatch, jobs - k * kBatch);
    if (!client.SendBatch(requests.data() + seq, count, seq).ok()) {
      tally.transport_ok = false;
      return;
    }
    ++outstanding;
  }
  while (outstanding > 0) {
    if (!absorb_one()) {
      tally.transport_ok = false;
      return;
    }
  }
}

// kClients producer threads running `body(index, tally)`, each attached to
// the tracer when traced; `done` counts the ones that returned. Joined on
// destruction, exception paths included.
class ClientThreads {
 public:
  template <typename Body>
  ClientThreads(Tracer* tracer, std::vector<ClientTally>& tallies,
                std::atomic<int>& done, Body body) {
    threads_.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads_.emplace_back([tracer, &tallies, &done, body, c] {
        if (tracer != nullptr) tracer->Attach("client-" + std::to_string(c));
        body(c, tallies[static_cast<std::size_t>(c)]);
        Tracer::Detach();
        done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
  }
  ~ClientThreads() { Join(); }
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  void Join() {
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

void Idle(std::int64_t since_ns) {
  std::this_thread::yield();
  if (SpanLog* log = CurrentLog()) log->AddIdle(NowNs() - since_ns);
}

}  // namespace

RepResult RunSubmit(const Options& options, bool opted_in, Tracer* tracer,
                    std::int64_t start_ns) {
  RepResult result;
  const Shape shape = ShapeFor(opted_in, options.smoke);
  const auto open_jobs =
      static_cast<std::uint64_t>(std::llround(shape.rate * shape.open_seconds));
  const std::uint64_t total = open_jobs + shape.closed;
  result.attempted = total;

  // ---- setup: the Chronus deployment and its model, the cluster under
  // test with the plugin loaded, the inputs, the server and connections.
  ThreadPool pool(2);
  telemetry::MetricsRegistry registry;
  std::vector<std::int64_t> setup_ends;  // product calls the set-up made
  DeploymentOptions deploy;
  deploy.workdir = options.workdir + "/chronus";
  deploy.pool = &pool;
  deploy.traced = tracer != nullptr;
  deploy.call_ends = &setup_ends;
  chronus::ChronusEnv env = MakeDeployment(deploy);
  const auto model = BuildModel(env, bench::PaperSweepConfigurations(), 0);
  if (!model.ok()) {
    result.Check(false, "model build: " + model.message());
    result.failed = total;
    return result;
  }
  const chronus::Configuration decision = model->decision;

  ClusterSim cluster(MakeClusterConfig(&pool, &registry));
  const Status attached = AttachPlugin(env, cluster, tracer != nullptr);
  result.Check(attached.ok(), "plugin load: " + attached.message());
  Digest digest;
  const std::vector<JobRequest> requests =
      MakeRequests(opted_in, total, options.seed, digest);
  result.digest = digest.Hex();

  IngressConfig icfg;
  icfg.max_queued = total + 1;
  icfg.metrics = &registry;
  SubmitIngress ingress(icfg);
  rpc::SubdConfig scfg;
  scfg.shards = 1;
  scfg.ingress = &ingress;
  scfg.metrics = &registry;
  rpc::SubdServer server(scfg);
  const Status started = server.Start();
  std::vector<rpc::SubmitClient> clients(kClients);
  bool connected = started.ok();
  for (auto& client : clients) {
    connected = connected && client.Connect("127.0.0.1", server.port()).ok();
  }
  if (!connected) {
    result.Check(false, "subd start / connect failed");
    result.failed = total;
    DetachPlugin(cluster);
    return result;
  }
  const SchedClock sched_clock(registry);
  Book book(total);
  plugin::ResetEcoPluginStats();
  const std::int64_t setup_done = NowNs();
  result.setup_s = static_cast<double>(setup_done - start_ns) / 1e9;
  AppendSegments(start_ns, setup_ends, setup_done, result.setup_segment_s);

  Window window(tracer);
  // ---- phase A: open loop, sim clock paced to wall time.
  std::vector<ClientTally> open_tally(kClients);
  std::vector<std::int64_t> reply_ns((open_jobs + kBatch - 1) / kBatch, 0);
  std::atomic<int> open_done{0};
  const std::int64_t open_ns =
      static_cast<std::int64_t>(shape.open_seconds * 1e9);
  const std::int64_t t0 = NowNs() + 5'000'000;  // clients are up by then
  double half_backlog = -1.0;
  double end_backlog = 0.0;
  ClientThreads open_clients(
      tracer, open_tally, open_done, [&](int c, ClientTally& tally) {
        OpenLoopClient(clients[static_cast<std::size_t>(c)], requests,
                       open_jobs, c, t0, shape.rate, reply_ns, tally);
      });
  {
    const double sim0 = cluster.Now();
    std::uint64_t processed = 0;
    const auto started_jobs = [&] {
      return static_cast<double>(
          CounterValue(registry, "eco_sched_jobs_started_total"));
    };
    while (processed < open_jobs) {
      const std::int64_t now = NowNs();
      if (open_done.load(std::memory_order_acquire) == kClients &&
          ingress.backlog() == 0) {
        break;  // a producer failed or was refused; checks report it
      }
      if (half_backlog < 0.0 && now - t0 >= open_ns / 2) {
        half_backlog = static_cast<double>(processed) - started_jobs();
      }
      const double horizon =
          sim0 + kSimSecondsPerWallSecond *
                     static_cast<double>(std::max<std::int64_t>(0, now - t0)) /
                     1e9;
      const bool have_jobs = ingress.backlog() > 0;
      const bool sim_due = horizon - cluster.Now() >= 1.0;
      if (!have_jobs && !sim_due) {
        Idle(now);
        continue;
      }
      Scope loop("sim.loop", Layer::kHarness);
      if (have_jobs) {
        Backlog drained;
        Drain(ingress, drained);
        processed += SubmitOldest(drained, drained.size(), cluster, book);
      }
      if (sim_due) {
        SimScope span("sim.run_until", &sched_clock);
        cluster.RunUntil(horizon);
      }
    }
    end_backlog = static_cast<double>(processed) - started_jobs() +
                  static_cast<double>(ingress.backlog());
  }
  open_clients.Join();
  {
    SimScope span("sim.run_idle", &sched_clock);
    cluster.RunUntilIdle();
  }

  // ---- phase B: closed loop until every job has Completed.
  std::vector<ClientTally> closed_tally(kClients);
  std::atomic<int> closed_done{0};
  std::atomic<bool> go{false};
  ClientThreads closed_clients(
      tracer, closed_tally, closed_done, [&](int c, ClientTally& tally) {
        ClosedLoopClient(clients[static_cast<std::size_t>(c)], requests,
                         open_jobs, shape.closed, c, go, tally);
      });
  const std::uint64_t b0_spans = ClosedSpans();
  const std::int64_t b0 = NowNs();
  go.store(true, std::memory_order_release);
  // The sim thread submits what it drained in chunks of the closed loop's
  // window, each followed by one tick. Each chunk's submit, its tick and
  // the final run to idle are one segment each: the same work in every rep.
  std::vector<std::int64_t> cuts;
  {
    Backlog backlog;
    std::uint64_t submitted = 0;
    while (true) {
      const std::int64_t now = NowNs();
      if (ingress.backlog() > 0) Drain(ingress, backlog);
      // Every job has arrived, or a producer failed (the checks report it):
      // the last chunk may be short.
      const bool all_in =
          submitted + backlog.size() == shape.closed ||
          (closed_done.load(std::memory_order_acquire) == kClients &&
           ingress.backlog() == 0);
      if (all_in && backlog.size() == 0) break;
      if (!all_in && backlog.size() < kChunk) {
        Idle(now);
        continue;
      }
      Scope loop("sim.loop", Layer::kHarness);
      submitted += SubmitOldest(backlog, kChunk, cluster, book);
      cuts.push_back(NowNs());
      {
        SimScope span("sim.run_until", &sched_clock);
        cluster.RunUntil(cluster.Now() + kTickSeconds);
      }
      cuts.push_back(NowNs());
    }
    SimScope span("sim.run_idle", &sched_clock);
    cluster.RunUntilIdle();
  }
  const std::int64_t b1 = NowNs();
  AppendSegments(b0, cuts, b1, result.segment_s);
  result.work = static_cast<double>(shape.closed);
  result.compute_spans = ClosedSpans() - b0_spans;
  closed_clients.Join();
  window.Close(result);
  server.Stop();

  // ---- checks: every seq acked kOk and mapped to exactly one job, every
  // job Completed, and the plugin's rewrite (or its absence) on every job.
  std::uint64_t acked = 0;
  for (const auto* tallies : {&open_tally, &closed_tally}) {
    for (const ClientTally& tally : *tallies) {
      result.Check(tally.transport_ok, "client transport error");
      result.Check(tally.refused == 0, "submit refused by admission");
      acked += tally.acked;
    }
  }
  result.Check(acked == total, "acked " + std::to_string(acked) + " of " +
                                   std::to_string(total));
  result.Check(book.rejected == 0 && book.duplicates == 0 &&
                   book.out_of_range == 0,
               "seq -> job id mapping not one-to-one");
  std::uint64_t failed = 0;
  std::uint64_t not_completed = 0;
  std::uint64_t wrong_config = 0;
  for (std::uint64_t seq = 0; seq < total; ++seq) {
    const JobId id = book.job_of_seq[seq];
    const auto job = id != 0 ? cluster.GetJob(id) : std::nullopt;
    bool ok = job.has_value() && job->state == JobState::kCompleted;
    if (job && !ok) ++not_completed;
    if (job) {
      const JobRequest& r = job->request;
      const bool as_decided =
          r.num_tasks == decision.cores &&
          r.threads_per_core == decision.threads_per_core &&
          r.cpu_freq_min == decision.frequency &&
          r.cpu_freq_max == decision.frequency;
      const bool untouched = r.num_tasks == job->submitted.num_tasks &&
                             r.threads_per_core ==
                                 job->submitted.threads_per_core &&
                             r.cpu_freq_max == job->submitted.cpu_freq_max;
      if (opted_in ? !as_decided : !untouched) {
        ++wrong_config;
        ok = false;
      }
    }
    if (!ok) ++failed;
  }
  result.Check(not_completed == 0,
               std::to_string(not_completed) + " jobs not Completed");
  result.Check(wrong_config == 0,
               std::to_string(wrong_config) +
                   (opted_in ? " jobs not rewritten to the model's decision"
                             : " jobs rewritten although not opted in"));
  const auto stats = plugin::GetEcoPluginStats();
  result.Check(stats.modified == (opted_in ? total : 0),
               "plugin modified " + std::to_string(stats.modified) +
                   " jobs, expected " +
                   std::to_string(opted_in ? total : 0));
  result.Check(stats.errors == 0, "plugin errors");
  result.failed = std::max<std::uint64_t>(failed, total - acked);
  AddCounterMetrics({&registry}, total, result);
  DetachPlugin(cluster);

  // ---- metrics. A job with no id counts as slower than the whole phase.
  const double never_ms = static_cast<double>(open_ns) / 1e6 + 1000.0;
  std::vector<double> latency_ms;
  std::vector<double> residency_ms;
  latency_ms.reserve(open_jobs);
  for (std::uint64_t seq = 0; seq < open_jobs; ++seq) {
    if (book.job_of_seq[seq] == 0) {
      latency_ms.push_back(never_ms);
      continue;
    }
    latency_ms.push_back(
        static_cast<double>(book.done_ns[seq] -
                            DueNs(t0, seq / kBatch, shape.rate)) /
        1e6);
    const std::int64_t replied = reply_ns[seq / kBatch];
    residency_ms.push_back(
        static_cast<double>(std::max<std::int64_t>(
            0, book.drained_ns[seq] - replied)) /
        1e6);
  }
  auto& m = result.metrics;
  m["latency_p50_ms"] = Percentile(latency_ms, 0.50);
  m["latency_p99_ms"] = Percentile(latency_ms, 0.99);
  result.compute_s = static_cast<double>(b1 - b0) / 1e9;
  m["ops_per_s"] = static_cast<double>(shape.closed) / result.compute_s;

  std::vector<double> rtt_us;
  std::int64_t lag_max_ns = 0;
  for (const ClientTally& tally : open_tally) {
    rtt_us.insert(rtt_us.end(), tally.rtt_us.begin(), tally.rtt_us.end());
    lag_max_ns = std::max(lag_max_ns, tally.lag_max_ns);
  }
  m["rpc.batch_rtt_p50_us"] = Percentile(rtt_us, 0.50);
  m["rpc.batch_rtt_p99_us"] = Percentile(rtt_us, 0.99);
  if (const auto* enqueue = registry.FindHistogram("eco_rpc_enqueue_seconds")) {
    m["rpc.enqueue_p99_us"] = enqueue->Count() > 0 ? enqueue->Quantile(0.99) * 1e6 : 0.0;
  }
  const double submits =
      static_cast<double>(CounterValue(registry, "eco_rpc_submits_total"));
  m["rpc.bytes_per_job"] =
      submits > 0.0
          ? static_cast<double>(
                CounterValue(registry, "eco_rpc_bytes_read_total") +
                CounterValue(registry, "eco_rpc_bytes_written_total")) /
                submits
          : 0.0;
  m["rpc.decode_errors"] = static_cast<double>(
      CounterValue(registry, "eco_rpc_decode_errors_total"));
  const double drains = static_cast<double>(
      CounterValue(registry, "eco_ingress_drain_batches_total"));
  m["ingress.drain_calls"] = drains;
  m["ingress.jobs_per_drain"] =
      drains > 0.0 ? static_cast<double>(CounterValue(
                         registry, "eco_ingress_drained_total")) /
                         drains
                   : 0.0;
  m["ingress.residency_p99_ms"] = Percentile(residency_ms, 0.99);
  m["ingress.backlog_peak"] = GaugeValue(registry, "eco_ingress_backlog_peak");
  m["ingress.rejected"] = static_cast<double>(
      CounterValue(registry, "eco_ingress_submitted_total") -
      CounterValue(registry, "eco_ingress_admitted_total"));
  m["gen.lag_max_ms"] = static_cast<double>(lag_max_ns) / 1e6;
  m["gen.saturated"] =
      end_backlog > std::max(0.0, half_backlog) + shape.rate * 0.1 ? 1.0 : 0.0;
  return result;
}

}  // namespace ecobench
