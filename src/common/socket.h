#ifndef KONDO_COMMON_SOCKET_H_
#define KONDO_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/statusor.h"

namespace kondo {

/// Where a Kondo server listens / a client connects. Exactly one transport
/// is active: a non-empty `unix_path` selects a unix-domain stream socket,
/// otherwise `port` selects TCP on the loopback interface (0 = let the
/// kernel pick; the bound port is readable from the ListenSocket).
struct SocketAddress {
  std::string unix_path;
  int port = 0;

  bool is_unix() const { return !unix_path.empty(); }
  std::string ToString() const;
};

/// A connected byte stream. Reads and writes loop over partial transfers,
/// so a frame-level caller only ever sees all-or-error semantics.
///
/// Thread contract: one thread reads/writes; a *different* thread may call
/// ShutdownRead() to wake a blocked ReadFully (the server uses this to
/// drain sessions on shutdown). The descriptor itself is immutable after
/// construction and closed only by the destructor.
///
/// The IO methods are virtual so a NetEnv decorator can wrap a real
/// connection (to drop, tear or silence it); decorators construct through
/// the protected default constructor and own no descriptor of their own.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  virtual ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes exactly `size` bytes (kDataLoss on a broken pipe).
  virtual Status WriteFully(const void* data, size_t size);
  Status WriteFully(const std::string& data) {
    return WriteFully(data.data(), data.size());
  }

  /// Reads exactly `size` bytes. A clean EOF before the first byte returns
  /// kOutOfRange ("connection closed") so frame loops can distinguish an
  /// orderly disconnect from a torn frame (kDataLoss). With a receive
  /// timeout armed, an idle wire returns kResourceExhausted ("socket read
  /// timed out") — the straggler signal fleet coordinators key on.
  virtual Status ReadFully(void* data, size_t size);

  /// Arms (micros > 0) or clears (micros == 0) a receive timeout on the
  /// socket. Timeouts surface from ReadFully as kResourceExhausted.
  virtual Status SetRecvTimeout(int64_t micros);

  /// Half-closes the read side, waking any blocked ReadFully with EOF.
  virtual void ShutdownRead();

  /// Half-closes the write side (the peer's reader sees EOF).
  virtual void ShutdownWrite();

 protected:
  /// For decorators that forward to a wrapped Connection (fd_ = -1; the
  /// destructor skips the close).
  Connection() = default;

 private:
  const int fd_ = -1;
};

/// A bound, listening socket accepting Connections. Accept/Shutdown are
/// virtual for the same decoration seam as Connection: a decorating
/// listener wraps every accepted connection.
class ListenSocket {
 public:
  ListenSocket(int fd, SocketAddress address)
      : fd_(fd), address_(std::move(address)) {}
  virtual ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Blocks for the next connection. After Shutdown() every pending and
  /// future Accept returns kFailedPrecondition ("listener closed").
  /// Transient failures (EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED)
  /// return kResourceExhausted with the errno text: the listener is intact
  /// and a later Accept may succeed.
  virtual StatusOr<std::unique_ptr<Connection>> Accept();

  /// Wakes blocked Accept calls; idempotent. (The accept loop calls this
  /// from the server's Stop thread.)
  virtual void Shutdown();

  /// The bound address; for TCP with port 0 this carries the kernel-chosen
  /// port.
  const SocketAddress& address() const { return address_; }

 protected:
  /// For decorators forwarding to a wrapped listener (fd_ = -1; the
  /// destructor skips the close and the socket-file removal).
  explicit ListenSocket(SocketAddress address)
      : address_(std::move(address)) {}

 private:
  const int fd_ = -1;
  SocketAddress address_;
};

/// Network access points, mirroring Env's role for the filesystem: servers
/// and clients reach sockets only through this seam, so a NetEnv decorator
/// sees every connection either end opens.
class NetEnv {
 public:
  virtual ~NetEnv() = default;

  /// Binds and listens on `address`. A unix-domain path is unlinked first
  /// (stale socket files from a crashed server must not block restart).
  virtual StatusOr<std::unique_ptr<ListenSocket>> Listen(
      const SocketAddress& address) = 0;

  /// Connects to a listening server.
  virtual StatusOr<std::unique_ptr<Connection>> Connect(
      const SocketAddress& address) = 0;

  /// The real-sockets environment (process-wide singleton).
  static NetEnv* Default();
};

}  // namespace kondo

#endif  // KONDO_COMMON_SOCKET_H_
