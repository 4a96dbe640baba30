// obsd HTTP routes suite (DESIGN.md "Observability plane").
//
// Routing is unit-tested through HandleObsRoute; the socket path is
// exercised with a raw blocking client against a live SubdServer on an
// ephemeral loopback port, the port that also carries the binary submit
// wire. The contracts under test:
//   - /metrics is byte-identical to MetricsRegistry::PrometheusText(),
//     also when the body outgrows the socket buffers;
//   - /timeseries delivers monotone, min/max-preserving samples at every
//     resolution for a real ClusterSim power trajectory;
//   - /healthz, 404 on unknown routes/series, 405 on non-GET;
//   - binary clients and HTTP scrapes share the port, and an over-long
//     request line closes only its own connection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/timeseries.hpp"
#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"
#include "slurm/obsd.hpp"
#include "slurm/rpc/client.hpp"
#include "slurm/rpc/subd.hpp"
#include "slurm/workload_gen.hpp"

namespace eco {
namespace {

using slurm::ClusterConfig;
using slurm::ClusterSim;
using slurm::rpc::SubdConfig;
using slurm::rpc::SubdServer;

// A blocking client socket; a server that never answers fails the read
// after 10 s instead of hanging the suite.
int ConnectRaw(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Reads to EOF (or a reset) and closes `fd`.
std::string ReadToEof(int fd) {
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// One blocking HTTP exchange: send `request_head` verbatim, read to EOF.
std::string RawExchange(std::uint16_t port, const std::string& request_head) {
  const int fd = ConnectRaw(port);
  EXPECT_EQ(::send(fd, request_head.data(), request_head.size(), 0),
            static_cast<ssize_t>(request_head.size()));
  return ReadToEof(fd);
}

std::string Get(std::uint16_t port, const std::string& target) {
  return RawExchange(port, "GET " + target +
                               " HTTP/1.1\r\nHost: localhost\r\n"
                               "Connection: close\r\n\r\n");
}

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  const auto at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

// The routes' server: a SubdServer whose ingress is closed, as in
// `chronus obsd`.
std::unique_ptr<SubdServer> StartServer(slurm::SubmitIngress& ingress,
                                        telemetry::MetricsRegistry* metrics,
                                        telemetry::TimeSeriesStore* timeseries,
                                        const ClusterSim* cluster) {
  ingress.Close();
  SubdConfig config;
  config.ingress = &ingress;
  config.metrics = metrics;
  config.timeseries = timeseries;
  config.cluster = cluster;
  auto server = std::make_unique<SubdServer>(std::move(config));
  EXPECT_TRUE(server->Start().ok());
  EXPECT_NE(server->port(), 0);
  return server;
}

// A small cluster driven to completion so every surface has live data.
class ObsdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::Instance().SetLevel(LogLevel::kError);
    ClusterConfig config;
    config.nodes = 4;
    config.timeseries = &store_;
    config.timeseries_resolution_s = 5.0;
    cluster_ = std::make_unique<ClusterSim>(config);
    slurm::WorkloadMix mix;
    mix.hpcg_share = 0.0;
    mix.users = 4;
    mix.seed = 7;
    auto generated = slurm::GenerateWorkload(mix, 40, 32, 1);
    std::vector<slurm::JobRequest> requests;
    for (auto& job : generated) requests.push_back(std::move(job.request));
    cluster_->SubmitBatch(std::move(requests));
    cluster_->RunUntilIdle();

    server_ = StartServer(ingress_, &cluster_->metrics(), &store_,
                          cluster_.get());
  }

  void TearDown() override {
    server_->Stop();
    Logger::Instance().SetLevel(LogLevel::kInfo);
  }

  // Capacity large enough that no level evicts on this workload: the
  // raw-vs-rollup envelope comparison needs every raw sample retained.
  telemetry::TimeSeriesStore store_{
      telemetry::TimeSeriesOptions{/*capacity=*/4096, /*fanout=*/10}};
  std::unique_ptr<ClusterSim> cluster_;
  slurm::SubmitIngress ingress_{slurm::IngressConfig{}};
  std::unique_ptr<SubdServer> server_;
};

TEST_F(ObsdTest, HealthzOverALiveSocket) {
  const std::string response = Get(server_->port(), "/healthz");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(Body(response), "ok\n");
  EXPECT_TRUE(server_->running());
}

TEST_F(ObsdTest, MetricsAreByteIdenticalToThePrometheusExporter) {
  // The sim thread is parked, so the registry cannot move underneath the
  // scrape; the HTTP body must match a direct export byte for byte.
  const std::string response = Get(server_->port(), "/metrics");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_EQ(Body(response), cluster_->metrics().PrometheusText());
}

TEST_F(ObsdTest, TimeseriesListsTrackedSeries) {
  const std::string body = Body(Get(server_->port(), "/timeseries"));
  const auto parsed = Json::Parse(body);
  ASSERT_TRUE(parsed.ok()) << body;
  const auto& names = parsed->at("series").as_array();
  std::vector<std::string> got;
  for (const auto& name : names) got.push_back(name.as_string());
  EXPECT_NE(std::find(got.begin(), got.end(), "eco_cluster_watts"),
            got.end());
  EXPECT_NE(std::find(got.begin(), got.end(), "eco_cluster_pending_jobs"),
            got.end());
  EXPECT_NE(std::find(got.begin(), got.end(), "eco_cluster_running_jobs"),
            got.end());
}

TEST_F(ObsdTest, TimeseriesSamplesAreMonotoneAtEveryResolution) {
  double raw_min = 0.0, raw_max = 0.0, r1_min = 0.0, r1_max = 0.0;
  for (int r = 0; r < 3; ++r) {
    const std::string target =
        "/timeseries?name=eco_cluster_watts&r=" + std::to_string(r);
    const std::string response = Get(server_->port(), target);
    ASSERT_EQ(StatusLine(response), "HTTP/1.1 200 OK") << target;
    const auto parsed = Json::Parse(Body(response));
    ASSERT_TRUE(parsed.ok()) << target;
    EXPECT_EQ(parsed->at("name").as_string(), "eco_cluster_watts");
    const auto& samples = parsed->at("samples").as_array();
    ASSERT_GT(samples.size(), 0u) << target;
    double prev_t1 = -1.0;
    double level_min = 0.0, level_max = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& sample = samples[i];
      const double t0 = sample.at("t0").as_number();
      const double t1 = sample.at("t1").as_number();
      const double min = sample.at("min").as_number();
      const double max = sample.at("max").as_number();
      EXPECT_LE(t0, t1) << target << " sample " << i;
      EXPECT_GT(t0, prev_t1) << target << " sample " << i;
      prev_t1 = t1;
      EXPECT_LE(min, max) << target << " sample " << i;
      EXPECT_GE(sample.at("count").as_number(), 1.0);
      if (i == 0) {
        level_min = min;
        level_max = max;
      } else {
        level_min = std::min(level_min, min);
        level_max = std::max(level_max, max);
      }
    }
    if (r == 0) {
      raw_min = level_min;
      raw_max = level_max;
    } else if (r == 1) {
      r1_min = level_min;
      r1_max = level_max;
    }
  }
  // Downsampling preserves the envelope: level 1 covers every raw sample
  // (completed buckets plus the partial pending one), so the global
  // min/max must survive the rollup exactly.
  EXPECT_DOUBLE_EQ(raw_min, r1_min);
  EXPECT_DOUBLE_EQ(raw_max, r1_max);
  EXPECT_GT(raw_max, 0.0);
}

TEST_F(ObsdTest, SdiagRouteRendersDiagnostics) {
  const std::string body = Body(Get(server_->port(), "/sdiag"));
  EXPECT_NE(body.find("sdiag output at t="), std::string::npos);
  EXPECT_NE(body.find("Time-series store:"), std::string::npos);
}

TEST_F(ObsdTest, UnknownRoutesAndSeriesAre404) {
  EXPECT_EQ(StatusLine(Get(server_->port(), "/nope")),
            "HTTP/1.1 404 Not Found");
  EXPECT_EQ(StatusLine(Get(server_->port(),
                           "/timeseries?name=no_such_series&r=0")),
            "HTTP/1.1 404 Not Found");
}

TEST_F(ObsdTest, NonGetMethodsAre405) {
  const std::string response = RawExchange(
      server_->port(),
      "POST /metrics HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 405 Method Not Allowed");
}

// Routing works without sockets too (the unit surface CI can always run).
TEST_F(ObsdTest, HandleRoutesWithoutSockets) {
  const auto handle = [&](const std::string& target) {
    return slurm::HandleObsRoute(target, &cluster_->metrics(), &store_,
                                 cluster_.get());
  };
  EXPECT_EQ(handle("/healthz").status, 200);
  EXPECT_EQ(handle("/metrics").body, cluster_->metrics().PrometheusText());
  EXPECT_EQ(handle("/bogus").status, 404);
  EXPECT_EQ(handle("/timeseries?name=eco_cluster_watts&r=9").status, 404);
  EXPECT_EQ(slurm::HandleObsRoute("/sdiag", nullptr, nullptr, nullptr).status,
            404);
  const auto stopped_twice = [&] {
    server_->Stop();
    server_->Stop();  // idempotent
    return server_->running();
  };
  EXPECT_FALSE(stopped_twice());
}

TEST_F(ObsdTest, BinaryClientSharesThePortWithAnHttpScrape) {
  slurm::rpc::SubmitClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Ping(1).ok());
  const std::string response = Get(server_->port(), "/metrics");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_NE(Body(response).find("eco_rpc_frames_total"), std::string::npos);
  // The scrape left the binary connection alone, and a fresh binary
  // connection after it is read as binary too. Only those two count as
  // RPC connections: an HTTP scrape moves no eco_rpc_* metric.
  EXPECT_TRUE(client.Ping(2).ok());
  slurm::rpc::SubmitClient late;
  ASSERT_TRUE(late.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(late.Ping(3).ok());
  EXPECT_EQ(cluster_->metrics()
                .FindCounter("eco_rpc_connections_total")
                ->Value(),
            2u);
  EXPECT_EQ(cluster_->metrics().FindCounter("eco_rpc_frames_total")->Value(),
            3u);
}

TEST_F(ObsdTest, OverlongRequestLineClosesOnlyItsConnection) {
  slurm::rpc::SubmitClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Ping(1).ok());

  // 9 KiB of request line and no CRLF: past the 8 KiB bound, the server
  // closes without an answer (EOF, or a reset if bytes were still unread).
  const int fd = ConnectRaw(server_->port());
  const std::string line = "GET /" + std::string(9 * 1024, 'a');
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  char sink[64];
  ssize_t n;
  do {
    n = ::recv(fd, sink, sizeof(sink), 0);
  } while (n < 0 && errno == EINTR);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET))
      << "n=" << n << " errno=" << errno;
  ::close(fd);

  EXPECT_TRUE(client.Ping(2).ok());
  EXPECT_EQ(StatusLine(Get(server_->port(), "/healthz")), "HTTP/1.1 200 OK");
}

// The kernel's ceiling on a TCP send buffer (tcp_wmem's max), 4 MiB if
// unreadable.
std::size_t MaxTcpSendBuffer() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t lo = 0, def = 0, max = 0;
  return (in >> lo >> def >> max) ? max : std::size_t{4} << 20;
}

TEST(ObsdLargeBody, MetricsLargerThanTheSendBufferArriveWhole) {
  // A body bigger than the server's largest possible send buffer cannot
  // leave in one send(): the reply must continue on EPOLLOUT and close
  // only once it has all flushed.
  const std::size_t target = MaxTcpSendBuffer() + (std::size_t{4} << 20);
  telemetry::MetricsRegistry registry;
  const std::string padding(200, 'x');
  for (int i = 0; registry.PrometheusText().size() < target; i += 4096) {
    for (int j = i; j < i + 4096; ++j) {
      registry.GetGauge("eco_test_" + padding + "_" + std::to_string(j))
          ->Set(j);
    }
  }
  slurm::SubmitIngress ingress{slurm::IngressConfig{}};
  auto server = StartServer(ingress, &registry, nullptr, nullptr);

  // A small receive window and a late reader keep the server's socket full.
  const int fd = ConnectRaw(server->port(), /*rcvbuf=*/16 * 1024);
  const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string response = ReadToEof(fd);
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  const std::string expected = registry.PrometheusText();
  ASSERT_GE(expected.size(), target);
  EXPECT_EQ(Body(response).size(), expected.size());
  EXPECT_TRUE(Body(response) == expected);
  server->Stop();
}

}  // namespace
}  // namespace eco
