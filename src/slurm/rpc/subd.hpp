// subd — the one network server: the binary-RPC submit front door over
// SubmitIngress, with the obsd HTTP routes (slurm/obsd.hpp) on the same
// port.
//
// This is the wire surface slurmctld puts in front of its scheduling loop,
// rebuilt for the million-user north star: an epoll-driven, edge-triggered,
// non-blocking server whose main job is to move submit batches off sockets
// and through SubmitIngress admission as fast as the NIC allows.
//
// Architecture (DESIGN.md "RPC front door"):
//
//   - One acceptor thread epolls the listen socket and distributes accepted
//     connections round-robin across N event-loop shards (epoll_ctl into a
//     shard's epoll instance is thread-safe, so handoff is one syscall).
//   - Each shard runs its own epoll loop over its connections: reads until
//     EAGAIN (edge-triggered contract), peels complete frames zero-copy out
//     of the per-connection read buffer, feeds every decoded submit record
//     through SubmitIngress::Submit, and appends one batched kSubmitReply
//     frame per request frame to the connection's write buffer. Writes
//     flush until EAGAIN; leftovers arm EPOLLOUT and continue when the
//     socket drains (partial-write continuation).
//   - Requests pipeline: a client may send any number of frames without
//     waiting; replies come back in frame order on the same connection.
//   - A connection's first four bytes pick its protocol once: [A-Z]{3}[A-Z ]
//     ("GET ", "POST") is HTTP, anything else is the binary wire. As a
//     little-endian u32 length prefix those bytes claim more than
//     kMaxPayloadBytes, which the binary decoder rejects anyway, so no
//     valid frame is ever misread. An HTTP connection gets one answer
//     (obsd's routes) rendered into its write buffer and closes once that
//     flushes; it moves no eco_rpc_* metric, so a /metrics scrape reads
//     the registry without perturbing it.
//
// The server never changes ClusterSim (only GET /sdiag reads it).
// Admitted requests sit in the ingress until the sim thread drains them
// (SubmitIngress::DrainInto, or the PumpWorkload ingress weave), which is
// what keeps schedules byte-identical to a serial per-call Submit loop at
// any connection count: ordering lives in the seq numbers, not in socket
// arrival races.
//
// A protocol violation (oversized length prefix, unknown version/type,
// malformed batch) closes that connection and bumps
// eco_rpc_decode_errors_total; an HTTP request line over 8 KiB closes its
// connection too. Other connections are untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/timeseries.hpp"
#include "slurm/ingress.hpp"
#include "slurm/rpc/wire.hpp"

namespace eco::slurm {
class ClusterSim;
}  // namespace eco::slurm

namespace eco::slurm::rpc {

struct SubdConfig {
  std::string bind_address = "127.0.0.1";
  // 0 = ephemeral; read the bound port from port() after Start().
  std::uint16_t port = 0;
  // Event-loop shard count (clamped to >= 1). Connections are distributed
  // round-robin at accept time.
  int shards = 2;
  // The admission front door every decoded request goes through. Required.
  SubmitIngress* ingress = nullptr;
  // Registry for the eco_rpc_* family, served at GET /metrics. nullptr = a
  // private owned registry (pass ClusterSim::metrics() to get the sdiag
  // "RPC front door" section).
  telemetry::MetricsRegistry* metrics = nullptr;
  // Served at GET /timeseries; nullptr answers 404.
  telemetry::TimeSeriesStore* timeseries = nullptr;
  // Enables GET /sdiag, which walks ClusterSim state: safe only while the
  // sim thread is parked.
  const ClusterSim* cluster = nullptr;
  // Admission clock handed to SubmitIngress::Submit (token-bucket refill).
  // Default: a constant 0, matching the deterministic in-process benches.
  std::function<double()> now_fn;
};

class SubdServer {
 public:
  explicit SubdServer(SubdConfig config);
  ~SubdServer();
  SubdServer(const SubdServer&) = delete;
  SubdServer& operator=(const SubdServer&) = delete;

  // Binds (SO_REUSEADDR), listens, starts the acceptor + shard threads.
  Status Start();
  // Idempotent; joins every thread and closes every connection.
  void Stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }
  // Live connection count across all shards (tests; metrics mirror it).
  [[nodiscard]] std::size_t active_connections() const;

 private:
  struct Conn;
  struct Shard;

  void AcceptLoop();
  void ShardLoop(Shard& shard);
  // Reads until EAGAIN, decodes every complete frame, writes replies.
  // False = close the connection.
  bool HandleReadable(Shard& shard, Conn& conn);
  // Decodes and executes the frames currently buffered on `conn`. False =
  // protocol error (connection must close after flushing nothing).
  bool DrainFrames(Shard& shard, Conn& conn);
  // Answers the HTTP request line buffered on `conn` once it is complete.
  // False = the line outgrew its 8 KiB bound.
  bool ServeHttp(Conn& conn);
  // Flushes conn.out until done or EAGAIN; arms/disarms EPOLLOUT. False =
  // close the connection: a hard write error, or an HTTP reply fully out.
  bool FlushWrites(Shard& shard, Conn& conn);
  void CloseConn(Shard& shard, Conn& conn);

  SubdConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int accept_epoll_fd_ = -1;
  int accept_wake_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Gauge* connections_active_ = nullptr;
  telemetry::Counter* frames_total_ = nullptr;
  telemetry::Counter* submits_total_ = nullptr;
  telemetry::Counter* admitted_total_ = nullptr;
  telemetry::Counter* decode_errors_total_ = nullptr;
  telemetry::Counter* bytes_read_total_ = nullptr;
  telemetry::Counter* bytes_written_total_ = nullptr;
  telemetry::Histogram* enqueue_seconds_ = nullptr;
};

}  // namespace eco::slurm::rpc
