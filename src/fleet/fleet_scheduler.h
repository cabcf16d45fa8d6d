#ifndef KONDO_FLEET_FLEET_SCHEDULER_H_
#define KONDO_FLEET_FLEET_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/socket.h"
#include "common/statusor.h"
#include "core/kondo.h"
#include "fleet/fleet_protocol.h"
#include "shard/shard_scheduler.h"
#include "workloads/multi_file_program.h"

namespace kondo {

/// How RunFleetCampaign distributes a sharded campaign over workers.
struct FleetOptions {
  /// Requested shard count (the planner may return fewer on tiny arrays).
  int shards = 1;

  /// Campaign directory — required. The manifest here is the single source
  /// of truth: per-shard status, dispatch counts, and the sealed artefacts
  /// all live in it, and a later invocation (fleet or local) resumes from
  /// exactly this state.
  std::string output_dir;

  /// Access-density weights steering the planner (empty = element-count
  /// balancing); see ShardOptions::plan_weights.
  PlanWeights plan_weights;

  /// Worker endpoints to connect to. Unreachable or handshake-failing
  /// workers are logged and skipped; at least one must survive.
  std::vector<SocketAddress> workers;

  /// Extent override shipped to workers in the kHello (0 = program
  /// default). Must produce the coordinator's file geometry — the
  /// handshake echo check fails the worker otherwise.
  int64_t program_extent = 0;

  /// Longest silence tolerated on a dispatched worker connection before
  /// the coordinator declares it a straggler: any frame (heartbeats count)
  /// re-arms the clock. On expiry the shard is re-dispatched elsewhere and
  /// the worker is retired.
  int64_t heartbeat_timeout_micros = 10'000'000;

  /// Socket seam; nullptr = real sockets. Tests wrap a FaultInjectingNetEnv
  /// here to sever a worker connection mid-shard.
  NetEnv* net = nullptr;

  /// Filesystem seam for every committed artefact; nullptr = real.
  Env* env = nullptr;
};

/// Distributes a sharded campaign over remote workers and merges the
/// results bit-identically to the local RunShardedCampaign. Both run the
/// same campaign-directory lifecycle (CampaignDirectory: plan, manifest
/// load-or-create, resume re-verification, merge) and the same dispatch
/// loop (DispatchShards: per-shard `W` counts and kMaxShardDispatches
/// budget, a manifest commit per finished shard, requeue on failure);
/// what the fleet adds is:
///
///  * handshakes every worker (kHello), failing any whose echoed file
///    geometry disagrees with the plan;
///  * makes each surviving worker link a one-slot ShardRunner whose run
///    ships the shard (kRunShard) and waits for its result, re-arming a
///    receive timeout on every frame. A timeout, torn stream, EOF, or
///    worker-reported error retires that link and requeues its shard —
///    the same demote-and-rerun rule the resume path applies to damaged
///    artefacts;
///  * commits each result through CommitShardResult (fingerprint-verified,
///    duplicate-tolerant) before the loop records it in the manifest, so
///    a coordinator crash resumes losslessly.
///
/// Fails (preserving manifest progress) when no worker completes the
/// handshake, when every worker is lost with shards still pending, or
/// when one shard exhausts its dispatch budget.
StatusOr<ShardedRunResult> RunFleetCampaign(const MultiFileProgram& program,
                                            const KondoConfig& config,
                                            const FleetOptions& options);

/// Verifies and commits one worker-delivered shard result into the
/// campaign directory. Verification before any write: the KSS bytes must
/// decode (checksum trailer, header, plan-consistent ids) and carry an `A`
/// fingerprint matching the delivered KEL2 bytes exactly. A duplicate
/// completion — the state file already committed — is tolerated when the
/// fingerprints agree (the commit is idempotent; nothing is rewritten) and
/// is an internal error when they disagree, since shard artefacts are pure
/// functions of (program, plan, config). Returns the decoded result.
StatusOr<ShardCampaignResult> CommitShardResult(const std::string& output_dir,
                                                const ShardPlan& plan,
                                                const ShardResultMsg& result,
                                                Env* env = nullptr);

}  // namespace kondo

#endif  // KONDO_FLEET_FLEET_SCHEDULER_H_
