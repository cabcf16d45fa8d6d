#ifndef KONDO_SERVE_SERVER_H_
#define KONDO_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/kondo.h"
#include "exec/thread_pool.h"
#include "serve/artifact_pool.h"
#include "serve/kpc.h"
#include "serve/session_host.h"
#include "workloads/program.h"

namespace kondo {

struct ServeOptions {
  /// Where to listen: a unix-domain socket path or a loopback TCP port
  /// (port 0 picks a free one; bound_address() reports it).
  SocketAddress address;

  /// Directory of served artifacts (`.kdp`, `.kel2`) and campaign output.
  std::string pool_root = ".";

  /// Campaign worker threads; 0 = hardware concurrency.
  int jobs = 0;

  /// Subset cache capacity in bytes.
  int64_t cache_bytes = int64_t{64} << 20;

  /// Admission control: per-connection cap on campaigns submitted but not
  /// yet finished, and global cap on campaigns accepted but not yet
  /// running. Breaching either rejects the submit (accepted = 0).
  int max_inflight = 4;
  int queue_capacity = 64;

  /// Events per kEventBatch frame of a streamed query result.
  int events_per_batch = 256;

  /// Deterministic extra busy-work per campaign job, for tests to model
  /// long campaigns without bigger workloads.
  int64_t job_spin_micros = 0;

  /// Deterministic per-fetch-subset blocking sleep modelling a
  /// backing-store round trip. Nothing in the project sets it above 0; it
  /// stays only because perfbench/serve_load.cc assigns it, and it goes
  /// with the next change to the benchmark.
  int64_t fetch_sleep_micros = 0;
};

/// The kondo daemon: accepts KPC connections, serving fetch-subset from
/// the fingerprint-keyed subset cache, query-provenance from the open
/// KEL2 store pool, submit-campaign onto a shared ThreadPool behind
/// admission control, and stats.
///
/// Threading: sessions run on a KpcSessionHost (one thread each, reaped
/// when they end); campaign jobs run on the shared worker pool. Stop()
/// (idempotent, also run by the destructor) stops the host, then waits
/// for every accepted campaign job — no job outlives the server.
class KondoServer {
 public:
  explicit KondoServer(ServeOptions options);
  ~KondoServer();

  KondoServer(const KondoServer&) = delete;
  KondoServer& operator=(const KondoServer&) = delete;

  /// Binds, listens, and starts accepting.
  Status Start();

  /// Stops accepting, drains sessions and campaign jobs, joins all
  /// threads. Safe to call from a signal-notified main loop.
  void Stop();

  /// The listen address with any port-0 resolved. Valid after Start().
  const SocketAddress& bound_address() const { return host_.bound_address(); }

  /// Point-in-time counters (the same snapshot the stats verb serves).
  ServeStatsSnapshot Stats() const KONDO_EXCLUDES(stats_mu_);

 private:
  struct Session : KpcSession {
    Session(KondoServer* server, Connection& conn)
        : server(server), conn(conn) {}
    /// Dispatches one request frame to its verb handler.
    Status Handle(const KpcFrame& frame) override;

    KondoServer* const server;
    Connection& conn;
    /// Campaigns this session submitted that may still be outstanding.
    /// Only the session's own thread touches this (admission runs on it).
    std::vector<JobHandle> jobs;
  };

  Status HandleFetchSubset(Connection& conn, const KpcFrame& frame);
  Status HandleQuery(Connection& conn, const KpcFrame& frame);
  Status HandleSubmit(Session* session, const KpcFrame& frame);
  Status HandleStats(Connection& conn);

  /// Writes `status` to the client as a kError frame; returns the write's
  /// status (the app error itself is not a session-fatal condition).
  Status WriteError(Connection& conn, const Status& status);

  void RecordLatency(int verb, int64_t micros) KONDO_EXCLUDES(stats_mu_);

  /// The body of one accepted campaign, run on a pool worker.
  void RunCampaignJob(std::shared_ptr<Program> program, int64_t job_id,
                      KondoConfig config);

  const ServeOptions options_;
  ArtifactPool artifacts_;
  ThreadPool workers_;

  /// Every accepted campaign's handle, kept so Stop() can prove drain.
  mutable Mutex jobs_mu_;
  std::vector<JobHandle> all_jobs_ KONDO_GUARDED_BY(jobs_mu_);
  int64_t next_job_id_ KONDO_GUARDED_BY(jobs_mu_) = 1;

  mutable Mutex stats_mu_;
  ServeStatsSnapshot counters_ KONDO_GUARDED_BY(stats_mu_);

  /// Declared last: its sessions use everything above.
  KpcSessionHost host_;
};

}  // namespace kondo

#endif  // KONDO_SERVE_SERVER_H_
