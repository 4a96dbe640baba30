// POSIX socket helpers for subd (the one listener: binary RPC and HTTP
// routes on one port) and its binary client.
//
// Everything here is loopback-grade plumbing: IPv4 only, no TLS, no name
// resolution beyond inet_pton. The helpers hold the boring-but-load-bearing
// details in one place — SO_REUSEADDR on the listener (a restart must not
// trip over a TIME_WAIT EADDRINUSE), full-write loops for the client's
// blocking sends, and resolving an ephemeral bind back to the
// kernel-chosen port.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace eco::slurm::rpc {

// A bound, listening TCP socket. `port` is the real port (resolves an
// ephemeral port-0 request). The caller owns `fd`.
struct ListenSocket {
  int fd = -1;
  std::uint16_t port = 0;
};

// socket + SO_REUSEADDR + bind + listen. The listen fd is non-blocking
// (for an epoll-driven acceptor) and close-on-exec.
Result<ListenSocket> ListenOn(const std::string& bind_address,
                              std::uint16_t port, int backlog);

// Blocking connect to an IPv4 address. Returns the connected fd (>= 0) or
// an error.
Result<int> ConnectTo(const std::string& address, std::uint16_t port);

// TCP_NODELAY — both RPC sides batch writes themselves; Nagle only adds
// latency under pipelining.
void SetNoDelay(int fd);

// Blocking full-write loop (MSG_NOSIGNAL): retries partial writes and EINTR
// until everything is out. False on a hard error or peer close.
bool SendAll(int fd, const char* data, std::size_t size);

// close() that tolerates fd < 0 and EINTR.
void CloseFd(int fd);

}  // namespace eco::slurm::rpc
