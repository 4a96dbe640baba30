// The subd RPC front door: wire codec round-trips and robustness (truncated
// frames, oversized length prefixes, unknown versions, garbage mid-stream),
// the epoll server end-to-end over loopback (pipelining, partial-write
// continuation via reply backlogs, per-connection isolation of protocol
// errors), the eco_rpc_* metrics surface, and the PumpWorkload ingress
// weave that carries network submits into the sim in seq order.
//
// Labelled `tsan` in CMake: the server tests put the acceptor/shard/client
// thread mesh under ThreadSanitizer in -DECO_SANITIZE=thread builds.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"
#include "slurm/rpc/client.hpp"
#include "slurm/rpc/socket_util.hpp"
#include "slurm/rpc/subd.hpp"
#include "slurm/rpc/wire.hpp"
#include "slurm/workload_gen.hpp"

namespace eco::slurm::rpc {
namespace {

JobRequest MakeRequest(int i) {
  JobRequest request;
  request.name = "rpc-" + std::to_string(i);
  request.user_id = 1000 + static_cast<std::uint32_t>(i % 7);
  request.min_nodes = 1 + (i % 2);
  request.num_tasks = 4 + (i % 5);
  request.threads_per_core = 1 + (i % 2);
  request.cpu_freq_min = 1'200'000;
  request.cpu_freq_max = 2'400'000 + static_cast<KiloHertz>(i);
  request.time_limit_s = 900.0 + i;
  request.comment = i % 3 == 0 ? "chronus" : "";
  request.qos = i % 2 == 0 ? "standard" : "premium";
  request.account = "acct-" + request.qos;
  request.partition = i % 4 == 0 ? "batch" : "";
  request.script = "#!/bin/sh\nsleep " + std::to_string(i) + "\n";
  request.deadline = i % 5 == 0 ? 5000.0 + i : 0.0;
  if (i % 3 == 1) request.depends_on = {static_cast<JobId>(i), 42u};
  request.workload = WorkloadSpec::Fixed(60.0 + i, 0.8);
  return request;
}

// ------------------------------------------------------------------ codec

TEST(RpcWire, SubmitBatchRoundTripsEveryField) {
  std::vector<JobRequest> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(MakeRequest(i));
  requests[2].workload = WorkloadSpec::Hpcg({64, 64, 64}, 30);

  std::vector<char> buf;
  AppendSubmitBatchFrame(buf, requests.data(), requests.size(),
                         /*base_seq=*/100);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(NextFrame(buf.data(), buf.size(), &frame, &consumed, &error),
            DecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(frame.type, FrameType::kSubmitBatch);
  EXPECT_EQ(frame.version, kWireVersion);

  std::vector<SubmitRecordView> records;
  ASSERT_TRUE(DecodeSubmitBatch(frame.payload, &records, &error)) << error;
  ASSERT_EQ(records.size(), requests.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 100 + i);
    const JobRequest decoded = records[i].ToJobRequest();
    const JobRequest& expect = requests[i];
    EXPECT_EQ(decoded.name, expect.name);
    EXPECT_EQ(decoded.user_id, expect.user_id);
    EXPECT_EQ(decoded.min_nodes, expect.min_nodes);
    EXPECT_EQ(decoded.num_tasks, expect.num_tasks);
    EXPECT_EQ(decoded.threads_per_core, expect.threads_per_core);
    EXPECT_EQ(decoded.cpu_freq_min, expect.cpu_freq_min);
    EXPECT_EQ(decoded.cpu_freq_max, expect.cpu_freq_max);
    EXPECT_DOUBLE_EQ(decoded.time_limit_s, expect.time_limit_s);
    EXPECT_EQ(decoded.comment, expect.comment);
    EXPECT_EQ(decoded.qos, expect.qos);
    EXPECT_EQ(decoded.account, expect.account);
    EXPECT_EQ(decoded.partition, expect.partition);
    EXPECT_EQ(decoded.script, expect.script);
    EXPECT_DOUBLE_EQ(decoded.deadline, expect.deadline);
    EXPECT_EQ(decoded.depends_on, expect.depends_on);
    EXPECT_EQ(decoded.workload.kind, expect.workload.kind);
    EXPECT_EQ(decoded.workload.problem.nx, expect.workload.problem.nx);
    EXPECT_EQ(decoded.workload.problem.ny, expect.workload.problem.ny);
    EXPECT_EQ(decoded.workload.problem.nz, expect.workload.problem.nz);
    EXPECT_EQ(decoded.workload.iterations, expect.workload.iterations);
    EXPECT_DOUBLE_EQ(decoded.workload.fixed_duration_s,
                     expect.workload.fixed_duration_s);
    EXPECT_DOUBLE_EQ(decoded.workload.fixed_utilization,
                     expect.workload.fixed_utilization);
  }
}

TEST(RpcWire, ReplyAndPingRoundTrip) {
  std::vector<SubmitReplyEntry> entries(3);
  entries[0] = {7, AdmitCode::kOk, false, 0.0};
  entries[1] = {8, AdmitCode::kRateLimited, true, 1.5};
  entries[2] = {9, AdmitCode::kQueueFull, true, 0.0};

  std::vector<char> buf;
  AppendSubmitReplyFrame(buf, entries.data(), entries.size());
  AppendPingFrame(buf, 0xdeadbeefULL);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(NextFrame(buf.data(), buf.size(), &frame, &consumed, &error),
            DecodeResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kSubmitReply);
  std::vector<SubmitReplyEntry> decoded;
  ASSERT_TRUE(DecodeSubmitReply(frame.payload, &decoded, &error)) << error;
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].seq, 7u);
  EXPECT_TRUE(decoded[0].ok());
  EXPECT_EQ(decoded[1].code, AdmitCode::kRateLimited);
  EXPECT_TRUE(decoded[1].backpressure);
  EXPECT_DOUBLE_EQ(decoded[1].retry_after_s, 1.5);
  EXPECT_EQ(decoded[2].code, AdmitCode::kQueueFull);

  const std::size_t second = consumed;
  ASSERT_EQ(NextFrame(buf.data() + second, buf.size() - second, &frame,
                      &consumed, &error),
            DecodeResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kPing);
  std::uint64_t token = 0;
  ASSERT_TRUE(DecodeEchoToken(frame.payload, &token));
  EXPECT_EQ(token, 0xdeadbeefULL);
}

TEST(RpcWire, TruncatedFramesWantMoreBytes) {
  std::vector<JobRequest> requests{MakeRequest(0)};
  std::vector<char> buf;
  AppendSubmitBatchFrame(buf, requests.data(), 1, kAutoSeqWire);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  // Every strict prefix — partial header and partial payload alike — asks
  // for more bytes rather than erroring or consuming anything.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(NextFrame(buf.data(), len, &frame, &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix " << len;
  }
  EXPECT_EQ(NextFrame(buf.data(), buf.size(), &frame, &consumed, &error),
            DecodeResult::kFrame);
}

TEST(RpcWire, HeaderViolationsAreErrorsBeforeThePayloadArrives) {
  const auto header = [](std::uint32_t len, std::uint8_t version,
                         std::uint8_t type, std::uint16_t reserved) {
    std::vector<char> h(kFrameHeaderBytes);
    std::memcpy(h.data(), &len, 4);
    h[4] = static_cast<char>(version);
    h[5] = static_cast<char>(type);
    std::memcpy(h.data() + 6, &reserved, 2);
    return h;
  };
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;

  // Oversized length prefix: rejected from the header alone — a desynced
  // stream must not convince the server to buffer gigabytes.
  auto oversized = header(kMaxPayloadBytes + 1, kWireVersion, 1, 0);
  EXPECT_EQ(NextFrame(oversized.data(), oversized.size(), &frame, &consumed,
                      &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("cap"), std::string::npos);

  auto bad_version = header(0, 9, 1, 0);
  EXPECT_EQ(NextFrame(bad_version.data(), bad_version.size(), &frame,
                      &consumed, &error),
            DecodeResult::kError);

  auto bad_type = header(0, kWireVersion, 200, 0);
  EXPECT_EQ(NextFrame(bad_type.data(), bad_type.size(), &frame, &consumed,
                      &error),
            DecodeResult::kError);

  auto bad_reserved = header(0, kWireVersion, 1, 7);
  EXPECT_EQ(NextFrame(bad_reserved.data(), bad_reserved.size(), &frame,
                      &consumed, &error),
            DecodeResult::kError);
}

TEST(RpcWire, MalformedBatchPayloadsAreRejected) {
  std::vector<SubmitRecordView> records;
  std::string error;

  // Truncated count.
  EXPECT_FALSE(DecodeSubmitBatch(std::string_view("\x01", 1), &records,
                                 &error));

  // Count far beyond what the payload could hold.
  char huge[8] = {};
  const std::uint32_t absurd = 1u << 30;
  std::memcpy(huge, &absurd, 4);
  EXPECT_FALSE(DecodeSubmitBatch(std::string_view(huge, sizeof(huge)),
                                 &records, &error));
  EXPECT_NE(error.find("count"), std::string::npos);

  // A valid record truncated mid-way.
  std::vector<JobRequest> requests{MakeRequest(1)};
  std::vector<char> buf;
  AppendSubmitBatchFrame(buf, requests.data(), 1, 0);
  const std::string_view payload(buf.data() + kFrameHeaderBytes,
                                 buf.size() - kFrameHeaderBytes);
  EXPECT_FALSE(DecodeSubmitBatch(payload.substr(0, payload.size() - 5),
                                 &records, &error));

  // Trailing bytes after the declared records.
  std::string padded(payload);
  padded.push_back('x');
  EXPECT_FALSE(DecodeSubmitBatch(padded, &records, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

// ----------------------------------------------------------------- server

struct ServerFixture {
  telemetry::MetricsRegistry metrics;
  IngressConfig ingress_config;
  std::unique_ptr<SubmitIngress> ingress;
  std::unique_ptr<SubdServer> server;

  explicit ServerFixture(int shards = 2) {
    ingress_config.metrics = &metrics;
    ingress = std::make_unique<SubmitIngress>(ingress_config);
    SubdConfig config;
    config.shards = shards;
    config.ingress = ingress.get();
    config.metrics = &metrics;
    server = std::make_unique<SubdServer>(std::move(config));
    const Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status.message();
  }

  [[nodiscard]] std::uint64_t Counter(const std::string& name) const {
    const telemetry::Counter* c = metrics.FindCounter(name);
    return c != nullptr ? c->Value() : 0;
  }
};

TEST(SubdServer, PipelinedBatchesRoundTripAndDrainInSeqOrder) {
  ServerFixture fx;

  std::vector<JobRequest> requests;
  for (int i = 0; i < 100; ++i) requests.push_back(MakeRequest(i));

  SubmitClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(client.Ping(12345).ok());

  // Four pipelined frames of 25, explicit seqs 0..99, replies read after
  // all sends (the server answers each frame in order).
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(client
                    .SendBatch(&requests[static_cast<std::size_t>(f) * 25], 25,
                               static_cast<std::uint64_t>(f) * 25)
                    .ok());
  }
  std::vector<SubmitReplyEntry> replies;
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(client.ReadReply(&replies).ok());
    ASSERT_EQ(replies.size(), 25u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_TRUE(replies[i].ok());
      EXPECT_EQ(replies[i].seq, static_cast<std::uint64_t>(f) * 25 + i);
    }
  }

  const auto pending = fx.ingress->Drain();
  ASSERT_EQ(pending.size(), requests.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(pending[i].seq, i);
    EXPECT_EQ(pending[i].request.name, requests[i].name);
    EXPECT_EQ(pending[i].request.script, requests[i].script);
  }

  EXPECT_EQ(fx.Counter("eco_rpc_submits_total"), 100u);
  EXPECT_EQ(fx.Counter("eco_rpc_admitted_total"), 100u);
  EXPECT_GE(fx.Counter("eco_rpc_frames_total"), 5u);  // 4 batches + ping
  EXPECT_EQ(fx.Counter("eco_rpc_decode_errors_total"), 0u);
  EXPECT_EQ(fx.Counter("eco_rpc_connections_total"), 1u);
  const telemetry::Histogram* enqueue =
      fx.metrics.FindHistogram("eco_rpc_enqueue_seconds");
  ASSERT_NE(enqueue, nullptr);
  EXPECT_EQ(enqueue->Count(), 100u);
}

TEST(SubdServer, ManyConnectionsReassembleTheSerialStream) {
  ServerFixture fx(/*shards=*/3);

  constexpr int kJobs = 960;
  constexpr int kConnections = 8;
  std::vector<JobRequest> requests;
  for (int i = 0; i < kJobs; ++i) requests.push_back(MakeRequest(i));

  // Contiguous slices per connection, every record carrying its global
  // stream index as seq — the determinism contract the storm bench gates.
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      constexpr std::size_t kSlice = kJobs / kConnections;
      const std::size_t begin = static_cast<std::size_t>(c) * kSlice;
      SubmitClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
      std::vector<SubmitReplyEntry> replies;
      for (std::size_t at = begin; at < begin + kSlice; at += 40) {
        ASSERT_TRUE(client.SendBatch(&requests[at], 40, at).ok());
        ASSERT_TRUE(client.ReadReply(&replies).ok());
        ASSERT_EQ(replies.size(), 40u);
        for (const auto& entry : replies) EXPECT_TRUE(entry.ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto pending = fx.ingress->Drain();
  ASSERT_EQ(pending.size(), static_cast<std::size_t>(kJobs));
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(pending[i].seq, i);
    EXPECT_EQ(pending[i].request.name, requests[i].name);
  }
  EXPECT_EQ(fx.Counter("eco_rpc_submits_total"),
            static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(fx.Counter("eco_rpc_connections_total"),
            static_cast<std::uint64_t>(kConnections));
}

TEST(SubdServer, ReplyBacklogExercisesPartialWriteContinuation) {
  ServerFixture fx;

  // Pipeline a large volume without reading a single reply: the server's
  // reply bytes exceed the socket buffer, forcing EAGAIN on its writes and
  // the EPOLLOUT continuation path. Everything must still arrive, in order.
  constexpr int kFrames = 64;
  constexpr int kPerFrame = 256;
  std::vector<JobRequest> requests;
  for (int i = 0; i < kPerFrame; ++i) requests.push_back(MakeRequest(i));

  SubmitClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client
                    .SendBatch(requests.data(), kPerFrame,
                               static_cast<std::uint64_t>(f) * kPerFrame)
                    .ok());
  }
  std::vector<SubmitReplyEntry> replies;
  std::uint64_t expected_seq = 0;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.ReadReply(&replies).ok()) << "frame " << f;
    ASSERT_EQ(replies.size(), static_cast<std::size_t>(kPerFrame));
    for (const auto& entry : replies) {
      EXPECT_TRUE(entry.ok());
      EXPECT_EQ(entry.seq, expected_seq++);
    }
  }
  EXPECT_EQ(fx.Counter("eco_rpc_submits_total"),
            static_cast<std::uint64_t>(kFrames) * kPerFrame);
}

TEST(SubdServer, GarbageClosesOnlyTheOffendingConnection) {
  ServerFixture fx;

  SubmitClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(good.Ping(1).ok());

  // Raw socket spraying garbage: the version byte is wrong, so the server
  // flags a decode error and closes that connection — recv() sees EOF.
  auto raw = ConnectTo("127.0.0.1", fx.server->port());
  ASSERT_TRUE(raw.ok());
  char garbage[kFrameHeaderBytes] = {};
  garbage[4] = static_cast<char>(kWireVersion + 1);
  garbage[5] = static_cast<char>(FrameType::kPing);
  ASSERT_TRUE(SendAll(*raw, garbage, sizeof(garbage)));
  char sink[64];
  ssize_t n;
  do {
    n = ::recv(*raw, sink, sizeof(sink), 0);
  } while (n > 0 || (n < 0 && errno == EINTR));
  EXPECT_EQ(n, 0) << "server should close the desynced connection";
  CloseFd(*raw);

  EXPECT_GE(fx.Counter("eco_rpc_decode_errors_total"), 1u);

  // The well-behaved connection rides through untouched.
  EXPECT_TRUE(good.Ping(2).ok());
  std::vector<JobRequest> one{MakeRequest(0)};
  std::vector<SubmitReplyEntry> replies;
  ASSERT_TRUE(good.SubmitAndWait(one, &replies).ok());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].ok());

  // "GET / HTTP/1.1" is not garbage on this port: it is an HTTP request,
  // answered by the obsd routes (no route at "/").
  auto http = ConnectTo("127.0.0.1", fx.server->port());
  ASSERT_TRUE(http.ok());
  const char request[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(SendAll(*http, request, sizeof(request) - 1));
  std::string response;
  while ((n = ::recv(*http, sink, sizeof(sink), 0)) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) response.append(sink, static_cast<std::size_t>(n));
  }
  CloseFd(*http);
  EXPECT_EQ(response.rfind("HTTP/1.1 404", 0), 0u) << response;
}

TEST(SubdServer, OversizedLengthPrefixIsRejectedImmediately) {
  ServerFixture fx;

  auto raw = ConnectTo("127.0.0.1", fx.server->port());
  ASSERT_TRUE(raw.ok());
  // A header claiming a 64 MiB payload, no payload following: the server
  // must reject from the header alone instead of buffering and waiting.
  char header[kFrameHeaderBytes] = {};
  const std::uint32_t huge = 64u << 20;
  std::memcpy(header, &huge, 4);
  header[4] = static_cast<char>(kWireVersion);
  header[5] = 1;
  ASSERT_TRUE(SendAll(*raw, header, sizeof(header)));
  char sink[64];
  ssize_t n;
  do {
    n = ::recv(*raw, sink, sizeof(sink), 0);
  } while (n > 0 || (n < 0 && errno == EINTR));
  EXPECT_EQ(n, 0);
  CloseFd(*raw);
  EXPECT_GE(fx.Counter("eco_rpc_decode_errors_total"), 1u);
}

TEST(SubdServer, ClosedIngressRejectsOverTheWire) {
  ServerFixture fx;
  fx.ingress->Close();

  SubmitClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  std::vector<JobRequest> one{MakeRequest(0)};
  std::vector<SubmitReplyEntry> replies;
  ASSERT_TRUE(client.SubmitAndWait(one, &replies).ok());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].code, AdmitCode::kClosed);
  EXPECT_EQ(fx.Counter(telemetry::LabeledName("eco_ingress_rejected_total",
                                              "reason", "closed")),
            1u);
}

// ------------------------------------------------------------ pump weave

// The wire-oriented MakeRequest above exercises every codec field, some of
// which (made-up partitions, dependency ids) a real cluster rejects; the
// weave tests want requests that actually schedule.
JobRequest SimpleRequest(int i) {
  JobRequest request;
  request.name = "weave-" + std::to_string(i);
  request.user_id = 1000 + static_cast<std::uint32_t>(i % 4);
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(60.0, 0.8);
  return request;
}

TEST(PumpWeave, NetworkSubmitsAndGeneratedJobsCompose) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 4;
  cluster_config.defer_dispatch = true;
  ClusterSim cluster(cluster_config);

  IngressConfig ingress_config;
  ingress_config.metrics = &cluster.metrics();
  SubmitIngress ingress(ingress_config);

  // A generated trickle plus direct ingress submits (standing in for the
  // network side — the server tests above prove the wire half).
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.users = 4;
  mix.seed = 99;
  auto generated = GenerateWorkload(mix, 20, 28, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ingress.Submit(SimpleRequest(i)).ok());
  }
  ingress.Close();

  PumpOptions options;
  options.ingress = &ingress;
  options.ingress_window_s = 30.0;
  const auto stats = PumpWorkload(cluster, std::move(generated), options);
  cluster.RunUntilIdle();

  EXPECT_EQ(stats->ingress_drained, 50u);
  EXPECT_GE(stats->ingress_batches, 1u);
  EXPECT_EQ(stats->rejected, 0u);
  EXPECT_EQ(stats->submitted, 70u);
  EXPECT_EQ(ingress.backlog(), 0u);
  EXPECT_EQ(ReadSchedMetric(cluster, "jobs_started_total"), 70u);
}

TEST(PumpWeave, DrainEventStopsRearmingOnceClosedAndEmpty) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  ClusterSim cluster(cluster_config);

  IngressConfig ingress_config;
  SubmitIngress ingress(ingress_config);
  ASSERT_TRUE(ingress.Submit(SimpleRequest(0)).ok());
  ingress.Close();

  PumpOptions options;
  options.ingress = &ingress;
  options.ingress_window_s = 5.0;
  const auto stats = PumpWorkload(cluster, {}, options);
  // Terminates — the drain event must not re-arm forever on a closed,
  // empty ingress (this hanging IS the failure mode).
  cluster.RunUntilIdle();
  EXPECT_EQ(stats->ingress_drained, 1u);
  EXPECT_EQ(ingress.backlog(), 0u);
}

}  // namespace
}  // namespace eco::slurm::rpc
