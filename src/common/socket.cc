#include "common/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace kondo {
namespace {

Status ErrnoError(StatusCode code, const std::string& what) {
  // Plain concatenation, no stream: Accept reports EMFILE through here
  // with no descriptor free, and UBSan's first check of a stream's dynamic
  // type opens a pipe, so it would misreport there.
  return Status(code, what + ": " + std::strerror(errno));
}

}  // namespace

std::string SocketAddress::ToString() const {
  if (is_unix()) {
    return StrCat("unix:", unix_path);
  }
  return StrCat("tcp:127.0.0.1:", port);
}

// ---------------------------------------------------------------------------
// Connection

Connection::~Connection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status Connection::WriteFully(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    const ssize_t n = ::send(fd_, p, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError(StatusCode::kDataLoss, "socket write");
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return OkStatus();
}

Status Connection::ReadFully(void* data, size_t size) {
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd_, p + done, size - done, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired. Distinct from kDataLoss: the stream is not
        // torn, the peer just went silent — the coordinator's straggler
        // signal.
        return ResourceExhaustedError("socket read timed out");
      }
      return ErrnoError(StatusCode::kDataLoss, "socket read");
    }
    if (n == 0) {
      if (done == 0) {
        return OutOfRangeError("connection closed");
      }
      return DataLossError(StrCat("connection closed mid-read: got ", done,
                                  " of ", size, " bytes"));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status Connection::SetRecvTimeout(int64_t micros) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(micros / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(micros % 1000000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoError(StatusCode::kInternal, "setsockopt SO_RCVTIMEO");
  }
  return OkStatus();
}

void Connection::ShutdownRead() { ::shutdown(fd_, SHUT_RD); }

void Connection::ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

// ---------------------------------------------------------------------------
// ListenSocket

ListenSocket::~ListenSocket() {
  if (fd_ < 0) {
    return;  // A decorator; the wrapped listener owns the descriptor.
  }
  ::close(fd_);
  if (address_.is_unix()) {
    // Remove the socket file so the next server can bind cleanly even
    // without the Listen-side unlink (e.g. under a different umask).
    std::remove(address_.unix_path.c_str());
  }
}

StatusOr<std::unique_ptr<Connection>> ListenSocket::Accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      return std::make_unique<Connection>(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EINVAL) {  // After Shutdown(): an orderly close.
      return FailedPreconditionError("listener closed");
    }
    const bool transient = errno == EMFILE || errno == ENFILE ||
                           errno == ENOBUFS || errno == ENOMEM ||
                           errno == ECONNABORTED;
    return ErrnoError(
        transient ? StatusCode::kResourceExhausted : StatusCode::kInternal,
        "accept");
  }
}

void ListenSocket::Shutdown() { ::shutdown(fd_, SHUT_RDWR); }

// ---------------------------------------------------------------------------
// NetEnv

namespace {

/// `address` as a socket address: the unix-domain path, or the port on the
/// loopback interface.
struct Endpoint {
  sockaddr_storage storage{};
  socklen_t length = 0;

  const sockaddr* addr() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

StatusOr<Endpoint> ResolveEndpoint(const SocketAddress& address) {
  Endpoint endpoint;
  if (address.is_unix()) {
    auto* sun = reinterpret_cast<sockaddr_un*>(&endpoint.storage);
    if (address.unix_path.size() >= sizeof(sun->sun_path)) {
      return InvalidArgumentError(
          StrCat("unix socket path too long: ", address.unix_path));
    }
    sun->sun_family = AF_UNIX;
    std::memcpy(sun->sun_path, address.unix_path.c_str(),
                address.unix_path.size() + 1);
    endpoint.length = sizeof(sockaddr_un);
  } else {
    auto* sin = reinterpret_cast<sockaddr_in*>(&endpoint.storage);
    sin->sin_family = AF_INET;
    sin->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin->sin_port = htons(static_cast<uint16_t>(address.port));
    endpoint.length = sizeof(sockaddr_in);
  }
  return endpoint;
}

class RealNetEnv : public NetEnv {
 public:
  StatusOr<std::unique_ptr<ListenSocket>> Listen(
      const SocketAddress& address) override {
    KONDO_ASSIGN_OR_RETURN(const Endpoint endpoint, ResolveEndpoint(address));
    const int fd = ::socket(endpoint.storage.ss_family, SOCK_STREAM, 0);
    if (fd < 0) {
      return ErrnoError(StatusCode::kInternal, "socket");
    }
    if (address.is_unix()) {
      std::remove(address.unix_path.c_str());
    } else {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    Status status = OkStatus();
    if (::bind(fd, endpoint.addr(), endpoint.length) != 0) {
      status = ErrnoError(StatusCode::kFailedPrecondition,
                          StrCat("bind ", address.ToString()));
    } else if (::listen(fd, 64) != 0) {
      status = ErrnoError(StatusCode::kInternal, "listen");
    }
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
    // Read back the kernel-assigned port for port 0 binds.
    SocketAddress resolved = address;
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (!address.is_unix() &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      resolved.port = static_cast<int>(ntohs(bound.sin_port));
    }
    return std::make_unique<ListenSocket>(fd, resolved);
  }

  StatusOr<std::unique_ptr<Connection>> Connect(
      const SocketAddress& address) override {
    KONDO_ASSIGN_OR_RETURN(const Endpoint endpoint, ResolveEndpoint(address));
    const int fd = ::socket(endpoint.storage.ss_family, SOCK_STREAM, 0);
    if (fd < 0) {
      return ErrnoError(StatusCode::kInternal, "socket");
    }
    if (::connect(fd, endpoint.addr(), endpoint.length) != 0) {
      const Status status = ErrnoError(StatusCode::kNotFound,
                                       StrCat("connect ", address.ToString()));
      ::close(fd);
      return status;
    }
    return std::make_unique<Connection>(fd);
  }
};

}  // namespace

NetEnv* NetEnv::Default() {
  static RealNetEnv* real = new RealNetEnv;
  return real;
}

}  // namespace kondo
