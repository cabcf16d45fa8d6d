#ifndef KONDO_SERVE_SESSION_HOST_H_
#define KONDO_SERVE_SESSION_HOST_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <thread>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/kpc.h"

namespace kondo {

/// One accepted connection's request handler.
class KpcSession {
 public:
  virtual ~KpcSession() = default;

  /// Handles one request frame on the session thread. An error ends the
  /// session (protocol violation, failed write); application errors go
  /// back to the peer as kError frames instead.
  virtual Status Handle(const KpcFrame& frame) = 0;
};

/// The session runtime of both daemons (`kondo serve`, `kondo worker`):
/// one accept thread, and one thread per connection running the
/// read-frame -> Handle loop until EOF or an error, then half-closing the
/// write side so the peer reads EOF at once. Before every Accept, ended
/// sessions are reaped (thread joined, handler and Connection destroyed).
/// A transient Accept failure (EMFILE and friends) is retried after a
/// pause; only Stop() ends the accept loop. Stop() (idempotent, also run
/// by the destructor) shuts the listener, joins the accept thread, shuts
/// the read side of every live session and joins them.
class KpcSessionHost {
 public:
  /// Builds the handler for an accepted connection, on the accept thread.
  /// `id` numbers accepted connections from 1.
  using SessionFactory =
      std::function<std::unique_ptr<KpcSession>(Connection& conn, int64_t id)>;
  /// Runs on the session thread after its loop, with the status that ended
  /// it: kOutOfRange for an orderly EOF (Stop() included).
  using SessionEnd = std::function<void(int64_t id, const Status& ended)>;

  KpcSessionHost(SessionFactory make_session, SessionEnd on_end);
  ~KpcSessionHost();

  KpcSessionHost(const KpcSessionHost&) = delete;
  KpcSessionHost& operator=(const KpcSessionHost&) = delete;

  /// Binds `address` through `net` and starts accepting; once only.
  Status Start(NetEnv* net, const SocketAddress& address);
  void Stop();

  /// True once Stop() has begun; long waits inside Handle poll this.
  bool stopping() const KONDO_EXCLUDES(mu_);

  /// The listen address with any port-0 resolved. Valid after Start().
  const SocketAddress& bound_address() const { return bound_address_; }

 private:
  struct Session {
    int64_t id = 0;
    std::unique_ptr<Connection> conn;
    std::unique_ptr<KpcSession> handler;  // Refers to *conn.
    bool done = false;  // Under the host's mu_.
    std::thread thread;
  };

  void AcceptLoop();
  void SessionLoop(Session* session);
  void ReapFinished() KONDO_EXCLUDES(mu_);

  const SessionFactory make_session_;
  const SessionEnd on_end_;
  std::unique_ptr<ListenSocket> listener_;
  SocketAddress bound_address_;

  mutable Mutex mu_;
  bool stopping_ KONDO_GUARDED_BY(mu_) = false;
  /// Entries are added and removed only by the accept thread, and by
  /// Stop() after joining it, so a session thread's pointer stays valid.
  std::list<std::unique_ptr<Session>> sessions_ KONDO_GUARDED_BY(mu_);

  std::thread accept_thread_;
};

}  // namespace kondo

#endif  // KONDO_SERVE_SESSION_HOST_H_
