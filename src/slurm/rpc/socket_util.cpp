#include "slurm/rpc/socket_util.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace eco::slurm::rpc {

namespace {

bool FillAddr(const std::string& address, std::uint16_t port,
              sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, address.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

Result<ListenSocket> ListenOn(const std::string& bind_address,
                              std::uint16_t port, int backlog) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Result<ListenSocket>::Error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  if (!FillAddr(bind_address, port, &addr)) {
    CloseFd(fd);
    return Result<ListenSocket>::Error("bad bind address " + bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Result<ListenSocket>::Error("bind failed on " + bind_address + ":" +
                                       std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) {
    CloseFd(fd);
    return Result<ListenSocket>::Error("listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  ListenSocket out;
  out.fd = fd;
  out.port = ntohs(bound.sin_port);
  return out;
}

Result<int> ConnectTo(const std::string& address, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Result<int>::Error("socket() failed");
  sockaddr_in addr{};
  if (!FillAddr(address, port, &addr)) {
    CloseFd(fd);
    return Result<int>::Error("bad address " + address);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    CloseFd(fd);
    return Result<int>::Error("connect to " + address + ":" +
                              std::to_string(port) + " failed");
  }
  return fd;
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool SendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

void CloseFd(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

}  // namespace eco::slurm::rpc
