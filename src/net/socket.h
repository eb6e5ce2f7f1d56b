// Thin RAII wrappers over loopback TCP sockets.
//
// The daemon's robustness story depends on the unglamorous parts of
// socket programming being right: partial reads and writes, EINTR,
// poll-based deadlines, peers that vanish mid-frame, SIGPIPE on a dead
// peer. This file owns all of it so the protocol layers above never see
// a raw fd. Errors are values (bool / RecvResult), not exceptions: a
// peer crashing is an expected input to the failure model, not a
// contract violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace rcbr::net {

enum class RecvStatus : std::uint8_t {
  kData,     // >= 1 byte read
  kClosed,   // orderly EOF from the peer
  kTimeout,  // deadline expired with nothing to read
  kError,    // socket error (ECONNRESET and friends)
};

struct RecvResult {
  RecvStatus status = RecvStatus::kError;
  std::size_t bytes = 0;
};

/// A connected TCP stream. Move-only; the destructor closes the fd.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd);
  ~TcpStream();
  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port, waiting at most `timeout_ms` for the
  /// three-way handshake. nullopt on refusal, timeout, or error.
  static std::optional<TcpStream> Connect(const std::string& host,
                                          std::uint16_t port,
                                          int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `n` bytes, looping over partial writes and EINTR.
  /// False on any error (the connection is dead; SIGPIPE is suppressed
  /// via MSG_NOSIGNAL).
  bool SendAll(const void* bytes, std::size_t n);

  /// Reads up to `n` bytes, waiting at most `timeout_ms` for the first
  /// byte (0 = only what is already buffered; negative = block forever).
  RecvResult RecvSome(void* bytes, std::size_t n, int timeout_ms);

  void Close();

 private:
  int fd_ = -1;
};

/// A listening socket bound to 127.0.0.1.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned; read
  /// the result back with port()). nullopt on any failure.
  static std::optional<TcpListener> Bind(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Accepts one pending connection, waiting at most `timeout_ms`.
  std::optional<TcpStream> Accept(int timeout_ms);

  void Close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace rcbr::net
