#ifndef KONDO_COMMON_NET_FAULT_H_
#define KONDO_COMMON_NET_FAULT_H_

#include <cstdint>
#include <memory>

#include "common/socket.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace kondo {

/// Deterministic fault schedule for a FaultInjectingNetEnv — the wire
/// counterpart of FaultPlan (common/env.h). Operation indices count the
/// *writes* a faulted connection performs, in per-connection order, so a
/// schedule keyed on (connection ordinal, write index) replays identically
/// regardless of how sessions interleave.
struct NetFaultPlan {
  /// Reserved for probabilistic schedules; deterministic drop/short-frame
  /// points below do not consume it.
  uint64_t seed = 1;

  /// Drop connection ordinal `drop_connection` (0-based, counted across
  /// Connect() and Accept() on the faulted env) after it completes
  /// `drop_after_writes` writes: every later write and read on it fails
  /// with an "injected connection drop" kDataLoss and the write side is
  /// shut down so the peer observes EOF. -1 = never.
  int64_t drop_connection = -1;
  int64_t drop_after_writes = 0;

  /// On the dropped write (requires drop_connection >= 0), transmit only
  /// the first `short_frame_bytes` bytes before shutting down — a torn
  /// frame on the peer's wire instead of a clean EOF. 0 = drop cleanly.
  int64_t short_frame_bytes = 0;
};

/// A NetEnv decorator that deterministically injects connection drops and
/// short (torn) frames per a NetFaultPlan, mirroring FaultInjectingEnv's
/// role for artifact IO. Both Connect()ed and Accept()ed connections are
/// counted and wrapped, so either end of a protocol can be faulted.
class FaultInjectingNetEnv : public NetEnv {
 public:
  FaultInjectingNetEnv(NetEnv* base, const NetFaultPlan& plan);

  StatusOr<std::unique_ptr<ListenSocket>> Listen(
      const SocketAddress& address) override;
  StatusOr<std::unique_ptr<Connection>> Connect(
      const SocketAddress& address) override;

  /// Connections handed out so far (Connect + Accept).
  int64_t connections() const KONDO_EXCLUDES(mu_);

  /// Injected drops delivered so far.
  int64_t faults_injected() const KONDO_EXCLUDES(mu_);

 private:
  friend class FaultInjectingConnection;
  friend class FaultInjectingListenSocket;

  std::unique_ptr<Connection> Wrap(std::unique_ptr<Connection> conn)
      KONDO_EXCLUDES(mu_);
  void RecordFault() KONDO_EXCLUDES(mu_);

  NetEnv* const base_;
  const NetFaultPlan plan_;
  mutable Mutex mu_;
  int64_t connections_ KONDO_GUARDED_BY(mu_) = 0;
  int64_t faults_ KONDO_GUARDED_BY(mu_) = 0;
};

}  // namespace kondo

#endif  // KONDO_COMMON_NET_FAULT_H_
