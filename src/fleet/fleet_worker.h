#ifndef KONDO_FLEET_FLEET_WORKER_H_
#define KONDO_FLEET_FLEET_WORKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/env.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "fleet/fleet_protocol.h"
#include "serve/session_host.h"
#include "workloads/multi_file_program.h"

namespace kondo {

struct FleetWorkerOptions {
  /// Where to listen: unix-domain path or loopback TCP port (0 picks one;
  /// bound_address() reports it).
  SocketAddress address;

  /// Scratch directory for in-flight per-shard lineage stores (created on
  /// Start). Artefacts here are transient: the sealed bytes ship to the
  /// coordinator and nothing on the worker is part of the campaign.
  std::string scratch_dir = ".";

  /// Campaign executor width for debloat tests.
  int jobs = 1;

  /// Liveness cadence while a shard campaign runs; must be > 0 (Start()
  /// rejects anything else).
  int64_t heartbeat_micros = 100'000;

  /// Socket seam; nullptr = real sockets. A NetEnv decorator here sees
  /// every accepted connection, so it can sever or silence one.
  NetEnv* net = nullptr;

  /// Filesystem seam for scratch lineage writes; nullptr = real.
  Env* env = nullptr;
};

/// A fleet worker process body: listens for a coordinator, answers the
/// kHello handshake, and serves kRunShard assignments — each one a full
/// RunSealedShard whose sealed KSS + KEL2 bytes stream back in a
/// kShardResult frame. While a campaign runs, a heartbeat thread writes
/// kHeartbeat frames (serialised with the result writes) so the
/// coordinator can tell busy from dead.
///
/// Threading: coordinator sessions run on a KpcSessionHost (one thread
/// each, reaped when they end); each session runs its campaigns inline and
/// owns a short-lived heartbeat thread per shard. Stop() (idempotent, also
/// run by the destructor) stops the host, which wakes blocked sessions and
/// joins everything.
class FleetWorker {
 public:
  explicit FleetWorker(FleetWorkerOptions options);
  ~FleetWorker();

  FleetWorker(const FleetWorker&) = delete;
  FleetWorker& operator=(const FleetWorker&) = delete;

  /// Creates the scratch directory, binds, listens, starts accepting.
  Status Start();

  /// Stops accepting, drains sessions, joins all threads.
  void Stop();

  /// The listen address with any port-0 resolved. Valid after Start().
  const SocketAddress& bound_address() const { return host_.bound_address(); }

  /// Shard campaigns completed and shipped since Start().
  int64_t shards_served() const KONDO_EXCLUDES(mu_);

 private:
  struct Session : KpcSession {
    Session(FleetWorker* worker, Connection& conn, int64_t id)
        : worker(worker), conn(conn), id(id) {}
    /// Dispatches one request frame; an error drops the session.
    Status Handle(const KpcFrame& frame) override;
    /// Writes one frame under send_mu (heartbeats race the session thread).
    Status Send(KpcKind kind, std::string_view payload);

    FleetWorker* const worker;
    /// Writes go through Send(), under send_mu. Reads (the host's session
    /// thread only) take no lock and may overlap heartbeat writes, which
    /// Connection allows — so no KONDO_PT_GUARDED_BY(send_mu) here.
    Connection& conn;
    const int64_t id;

    /// Campaign spec from this session's kHello (null until hello'd);
    /// written and read by the session thread only, never under a lock.
    std::unique_ptr<MultiFileProgram> program;
    ShardPlan plan;  // Plan-lite: shapes + offsets, no shard list.
    FuzzConfig fuzz;
    uint64_t rng_seed = 1;

    /// Serialises kHeartbeat frames against kShardResult/kError writes.
    Mutex send_mu;
    int64_t frames_sent KONDO_GUARDED_BY(send_mu) = 0;
  };

  Status HandleHello(Session* session, const KpcFrame& frame);
  Status HandleRunShard(Session* session, const KpcFrame& frame);

  /// Runs shard `request` and returns the sealed result message.
  StatusOr<ShardResultMsg> RunAssignedShard(Session* session,
                                            const RunShardRequest& request);

  const FleetWorkerOptions options_;

  mutable Mutex mu_;
  int64_t shards_served_ KONDO_GUARDED_BY(mu_) = 0;

  /// Declared last: its sessions use everything above.
  KpcSessionHost host_;
};

}  // namespace kondo

#endif  // KONDO_FLEET_FLEET_WORKER_H_
