#include "slurm/rpc/subd.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/perf.hpp"
#include "slurm/obsd.hpp"
#include "slurm/rpc/socket_util.hpp"

namespace eco::slurm::rpc {

namespace {

// epoll user-data markers for the acceptor's two non-connection fds.
constexpr std::uint64_t kWakeMarker = 0;
constexpr std::uint64_t kListenMarker = 1;

// Read chunk appended to a connection buffer per recv() call. Big enough
// that a pipelined burst drains in few syscalls, small enough that an idle
// connection does not pin memory (buffers shrink on close, not per-frame).
constexpr std::size_t kReadChunk = 64 * 1024;

// A connection's protocol is decided by this many leading bytes.
constexpr std::size_t kSniffBytes = 4;
// An HTTP request line, CRLF included, must fit in this many bytes.
constexpr std::size_t kMaxHttpRequestLine = 8192;

// [A-Z]{3}[A-Z ]: an HTTP method ("GET ", "POST", "HEAD"). As a binary
// length prefix the 4th byte (>= 0x20) alone claims more than
// kMaxPayloadBytes, so no valid frame starts this way.
bool LooksLikeHttp(const char* p) {
  const auto upper = [](char c) { return c >= 'A' && c <= 'Z'; };
  return upper(p[0]) && upper(p[1]) && upper(p[2]) &&
         (upper(p[3]) || p[3] == ' ');
}

// Enqueue-latency buckets (seconds): sub-microsecond through 100 ms. The
// Submit hot path is lock-striped and allocation-light, so the interesting
// resolution is at the low end.
std::vector<double> EnqueueBounds() {
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5,
          1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1};
}

void DrainEventFd(int fd) {
  std::uint64_t n = 0;
  while (::read(fd, &n, sizeof(n)) > 0) {
  }
}

void RingEventFd(int fd) {
  const std::uint64_t one = 1;
  ssize_t rc;
  do {
    rc = ::write(fd, &one, sizeof(one));
  } while (rc < 0 && errno == EINTR);
}

}  // namespace

// One client connection, owned by exactly one shard after accept-time
// handoff, so no per-connection locking: the shard thread is the only
// toucher until CloseConn.
struct SubdServer::Conn {
  enum class Protocol : std::uint8_t { kUnknown, kBinary, kHttp };
  int fd = -1;
  Protocol protocol = Protocol::kUnknown;
  // HTTP: the one reply is queued; close once conn.out drains.
  bool close_after_flush = false;
  // Receive buffer; [in_start, in.size()) is unconsumed. Frames decode
  // zero-copy out of this buffer, so it only compacts between frames.
  std::vector<char> in;
  std::size_t in_start = 0;
  // Batched replies; [out_start, out.size()) awaits the socket (partial
  // write continuation keeps out_start instead of memmoving the buffer).
  std::vector<char> out;
  std::size_t out_start = 0;
  bool want_write = false;
};

struct SubdServer::Shard {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  // Guards `conns` only — the acceptor inserts while the shard loop runs.
  // The Conn objects themselves are shard-thread-only.
  std::mutex mutex;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  // Decode/reply scratch, reused across frames (steady state: no allocs).
  std::vector<SubmitRecordView> records;
  std::vector<SubmitReplyEntry> replies;
};

SubdServer::SubdServer(SubdConfig config) : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
  if (!config_.now_fn) config_.now_fn = [] { return 0.0; };
  if (config_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = config_.metrics;
  }
  connections_total_ = metrics_->GetCounter("eco_rpc_connections_total");
  connections_active_ = metrics_->GetGauge("eco_rpc_connections_active");
  frames_total_ = metrics_->GetCounter("eco_rpc_frames_total");
  submits_total_ = metrics_->GetCounter("eco_rpc_submits_total");
  admitted_total_ = metrics_->GetCounter("eco_rpc_admitted_total");
  decode_errors_total_ = metrics_->GetCounter("eco_rpc_decode_errors_total");
  bytes_read_total_ = metrics_->GetCounter("eco_rpc_bytes_read_total");
  bytes_written_total_ = metrics_->GetCounter("eco_rpc_bytes_written_total");
  enqueue_seconds_ =
      metrics_->GetHistogram("eco_rpc_enqueue_seconds", EnqueueBounds());
}

SubdServer::~SubdServer() { Stop(); }

Status SubdServer::Start() {
  if (running_.load(std::memory_order_relaxed)) return Status::Ok();
  if (config_.ingress == nullptr) {
    return Status::Error("subd: SubdConfig.ingress is required");
  }
  auto listener =
      ListenOn(config_.bind_address, config_.port, /*backlog=*/512);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener->fd;
  port_ = listener->port;

  accept_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  accept_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (accept_epoll_fd_ < 0 || accept_wake_fd_ < 0) {
    Stop();
    return Status::Error("subd: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeMarker;
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, accept_wake_fd_, &ev);
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenMarker;
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  shards_.clear();
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (shard->epoll_fd < 0 || shard->wake_fd < 0) {
      Stop();
      return Status::Error("subd: shard epoll/eventfd setup failed");
    }
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.u64 = kWakeMarker;
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->wake_fd, &wake);
    shards_.push_back(std::move(shard));
  }

  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { ShardLoop(*raw); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void SubdServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    RingEventFd(accept_wake_fd_);
    for (auto& shard : shards_) RingEventFd(shard->wake_fd);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  } else if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (auto& shard : shards_) {
    if (!shard) continue;
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [fd, conn] : shard->conns) CloseFd(fd);
    shard->conns.clear();
    CloseFd(shard->epoll_fd);
    CloseFd(shard->wake_fd);
    shard->epoll_fd = shard->wake_fd = -1;
  }
  shards_.clear();
  CloseFd(accept_epoll_fd_);
  CloseFd(accept_wake_fd_);
  CloseFd(listen_fd_);
  accept_epoll_fd_ = accept_wake_fd_ = listen_fd_ = -1;
  connections_active_->Set(0.0);
}

std::size_t SubdServer::active_connections() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->conns.size();
  }
  return total;
}

void SubdServer::AcceptLoop() {
  std::size_t next_shard = 0;
  epoll_event events[16];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(accept_epoll_fd_, events, 16, /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kWakeMarker) {
        DrainEventFd(accept_wake_fd_);
        continue;
      }
      // Edge-triggered listen socket: accept until EAGAIN.
      while (true) {
        const int fd =
            ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN, or a transient accept error — epoll re-reports
        }
        SetNoDelay(fd);
        Shard& shard = *shards_[next_shard];
        next_shard = (next_shard + 1) % shards_.size();
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        Conn* raw = conn.get();
        {
          std::lock_guard<std::mutex> lock(shard.mutex);
          shard.conns.emplace(fd, std::move(conn));
        }
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
        ev.data.ptr = raw;
        if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
          std::lock_guard<std::mutex> lock(shard.mutex);
          shard.conns.erase(fd);
          CloseFd(fd);
        }
      }
    }
  }
}

void SubdServer::ShardLoop(Shard& shard) {
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(shard.epoll_fd, events, 64, /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr ||
          events[i].data.u64 == kWakeMarker) {
        DrainEventFd(shard.wake_fd);
        continue;
      }
      auto* conn = static_cast<Conn*>(events[i].data.ptr);
      const std::uint32_t flags = events[i].events;
      bool alive = true;
      if ((flags & (EPOLLERR | EPOLLHUP)) != 0) {
        alive = false;
      }
      if (alive && (flags & (EPOLLIN | EPOLLRDHUP)) != 0) {
        alive = HandleReadable(shard, *conn);
      }
      if (alive && (flags & EPOLLOUT) != 0) {
        alive = FlushWrites(shard, *conn);
      }
      if (!alive) CloseConn(shard, *conn);
    }
  }
}

bool SubdServer::HandleReadable(Shard& shard, Conn& conn) {
  bool peer_closed = false;
  std::size_t read_bytes = 0;
  // Edge-triggered contract: consume the socket until EAGAIN (or close).
  while (true) {
    const std::size_t old_size = conn.in.size();
    conn.in.resize(old_size + kReadChunk);
    const ssize_t r = ::recv(conn.fd, conn.in.data() + old_size, kReadChunk, 0);
    if (r > 0) {
      conn.in.resize(old_size + static_cast<std::size_t>(r));
      read_bytes += static_cast<std::size_t>(r);
      if (static_cast<std::size_t>(r) < kReadChunk) {
        // Short read: the socket is drained for this edge. (A full chunk
        // loops to distinguish "exactly kReadChunk pending" from "more".)
        break;
      }
      continue;
    }
    conn.in.resize(old_size);
    if (r == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // hard read error
  }
  if (conn.protocol == Conn::Protocol::kUnknown) {
    if (conn.in.size() < kSniffBytes) return !peer_closed;
    if (LooksLikeHttp(conn.in.data())) {
      conn.protocol = Conn::Protocol::kHttp;
    } else {
      // Only binary connections count in eco_rpc_*, from their first byte.
      conn.protocol = Conn::Protocol::kBinary;
      connections_total_->Add(1);
      connections_active_->Add(1.0);
      read_bytes = conn.in.size();
    }
  }
  if (conn.protocol == Conn::Protocol::kHttp) {
    if (!ServeHttp(conn)) return false;
    if (!FlushWrites(shard, conn)) return false;
    // A half-closed peer that is owed a reply keeps the connection until
    // the reply flushes.
    return !peer_closed || conn.close_after_flush;
  }
  bytes_read_total_->Add(read_bytes);
  if (!DrainFrames(shard, conn)) return false;
  if (!FlushWrites(shard, conn)) return false;
  // A half-closed peer still gets its final replies (flushed above), but
  // the connection ends once the inbound stream does.
  return !peer_closed;
}

bool SubdServer::DrainFrames(Shard& shard, Conn& conn) {
  std::string error;
  while (true) {
    FrameView frame;
    std::size_t consumed = 0;
    const DecodeResult rc =
        NextFrame(conn.in.data() + conn.in_start, conn.in.size() - conn.in_start,
                  &frame, &consumed, &error);
    if (rc == DecodeResult::kNeedMore) break;
    if (rc == DecodeResult::kError) {
      decode_errors_total_->Add(1);
      return false;
    }
    frames_total_->Add(1);
    switch (frame.type) {
      case FrameType::kSubmitBatch: {
        if (!DecodeSubmitBatch(frame.payload, &shard.records, &error)) {
          decode_errors_total_->Add(1);
          return false;
        }
        shard.replies.clear();
        shard.replies.reserve(shard.records.size());
        const double now_s = config_.now_fn();
        std::uint64_t ok_count = 0;
        for (const SubmitRecordView& record : shard.records) {
          const std::uint64_t ingress_seq = record.seq == kAutoSeqWire
                                                ? SubmitIngress::kAutoSeq
                                                : record.seq;
          const std::uint64_t t0 = NowNanos();
          const AdmitResult admit = config_.ingress->Submit(
              record.ToJobRequest(), now_s, ingress_seq);
          enqueue_seconds_->Observe(
              static_cast<double>(NowNanos() - t0) * 1e-9);
          SubmitReplyEntry entry;
          entry.seq = admit.ok() ? admit.seq : record.seq;
          entry.code = admit.code;
          entry.backpressure = admit.backpressure;
          entry.retry_after_s = admit.retry_after_s;
          shard.replies.push_back(entry);
          if (admit.ok()) ++ok_count;
        }
        submits_total_->Add(shard.records.size());
        admitted_total_->Add(ok_count);
        AppendSubmitReplyFrame(conn.out, shard.replies.data(),
                               shard.replies.size());
        break;
      }
      case FrameType::kPing: {
        std::uint64_t token = 0;
        if (!DecodeEchoToken(frame.payload, &token)) {
          decode_errors_total_->Add(1);
          return false;
        }
        AppendPongFrame(conn.out, token);
        break;
      }
      case FrameType::kSubmitReply:
      case FrameType::kPong:
        // Server-to-client types arriving at the server = desynced peer.
        decode_errors_total_->Add(1);
        return false;
    }
    conn.in_start += consumed;
  }
  // Compact between frames, never inside one: decoded views into the
  // buffer are dead by now, so the memmove is safe.
  if (conn.in_start > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_start));
    conn.in_start = 0;
  }
  return true;
}

bool SubdServer::ServeHttp(Conn& conn) {
  if (!conn.close_after_flush) {
    const std::string_view head(
        conn.in.data(), std::min(conn.in.size(), kMaxHttpRequestLine));
    const std::size_t eol = head.find("\r\n");
    if (eol == std::string_view::npos) {
      return conn.in.size() < kMaxHttpRequestLine;  // wait for the rest
    }
    const std::string reply =
        RenderHttpReply(head.substr(0, eol), metrics_, config_.timeseries,
                        config_.cluster);
    conn.out.insert(conn.out.end(), reply.begin(), reply.end());
    conn.close_after_flush = true;
  }
  // One request per connection: whatever follows the request line (its
  // headers, a body) is read and dropped.
  conn.in.clear();
  return true;
}

bool SubdServer::FlushWrites(Shard& shard, Conn& conn) {
  while (conn.out_start < conn.out.size()) {
    const ssize_t w =
        ::send(conn.fd, conn.out.data() + conn.out_start,
               conn.out.size() - conn.out_start, MSG_NOSIGNAL);
    if (w > 0) {
      conn.out_start += static_cast<std::size_t>(w);
      if (conn.protocol == Conn::Protocol::kBinary) {
        bytes_written_total_->Add(static_cast<std::uint64_t>(w));
      }
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | EPOLLOUT;
        ev.data.ptr = &conn;
        ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return true;  // partial write: continue on the next EPOLLOUT edge
    }
    return false;  // hard write error or peer gone
  }
  conn.out.clear();
  conn.out_start = 0;
  if (conn.close_after_flush) return false;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.ptr = &conn;
    ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }
  return true;
}

void SubdServer::CloseConn(Shard& shard, Conn& conn) {
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  const int fd = conn.fd;
  const bool binary = conn.protocol == Conn::Protocol::kBinary;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.conns.erase(fd);  // destroys conn
  }
  CloseFd(fd);
  if (binary) connections_active_->Add(-1.0);
}

}  // namespace eco::slurm::rpc
