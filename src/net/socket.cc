#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace rcbr::net {

namespace {

bool PollOnce(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpStream::TcpStream(int fd) : fd_(fd) {
  if (fd_ >= 0) SetNoDelay(fd_);
}

TcpStream::~TcpStream() { Close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpStream::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpStream> TcpStream::Connect(const std::string& host,
                                            std::uint16_t port,
                                            int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }
  // Non-blocking connect so the handshake honors the deadline.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return std::nullopt;
  }
  if (rc != 0) {
    if (!PollOnce(fd, POLLOUT, timeout_ms)) {
      ::close(fd);
      return std::nullopt;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; I/O uses poll deadlines
  return TcpStream(fd);
}

bool TcpStream::SendAll(const void* bytes, std::size_t n) {
  if (fd_ < 0) return false;
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc =
        ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EINTR)) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!PollOnce(fd_, POLLOUT, 1000)) return false;
      continue;
    }
    return false;
  }
  return true;
}

RecvResult TcpStream::RecvSome(void* bytes, std::size_t n, int timeout_ms) {
  if (fd_ < 0) return {RecvStatus::kError, 0};
  if (timeout_ms != 0 && !PollOnce(fd_, POLLIN, timeout_ms)) {
    return {RecvStatus::kTimeout, 0};
  }
  for (;;) {
    const ssize_t rc = ::recv(fd_, bytes, n, timeout_ms == 0 ? MSG_DONTWAIT : 0);
    if (rc > 0) return {RecvStatus::kData, static_cast<std::size_t>(rc)};
    if (rc == 0) return {RecvStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {RecvStatus::kTimeout, 0};
    }
    return {RecvStatus::kError, 0};
  }
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpListener> TcpListener::Bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<TcpStream> TcpListener::Accept(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if (!PollOnce(fd_, POLLIN, timeout_ms)) return std::nullopt;
  for (;;) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) return TcpStream(conn);
    if (errno != EINTR) return std::nullopt;
  }
}

}  // namespace rcbr::net
