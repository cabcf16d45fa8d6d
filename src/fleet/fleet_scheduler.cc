#include "fleet/fleet_scheduler.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "provenance/crc32.h"
#include "serve/kpc.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"

namespace kondo {
namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// Connects to `address` and runs the kHello handshake, failing a worker
/// whose echoed file geometry differs from the coordinator's plan.
StatusOr<std::unique_ptr<Connection>> HandshakeWorker(
    NetEnv* net, const SocketAddress& address, const WorkerHello& hello,
    const std::vector<Shape>& file_shapes, int64_t timeout_micros) {
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                         net->Connect(address));
  KONDO_RETURN_IF_ERROR(conn->SetRecvTimeout(timeout_micros));
  KONDO_RETURN_IF_ERROR(
      WriteKpcFrame(*conn, KpcKind::kHello, hello.Encode()));
  KONDO_ASSIGN_OR_RETURN(KpcFrame frame, ReadKpcReply(*conn));
  if (frame.kind != KpcKind::kHello) {
    return DataLossError(
        StrCat("unexpected handshake frame kind from worker ",
               address.ToString(), ": ", static_cast<int>(frame.kind)));
  }
  KONDO_ASSIGN_OR_RETURN(WorkerHelloAck ack,
                         WorkerHelloAck::Decode(frame.payload));
  if (ack.file_shapes != file_shapes) {
    return FailedPreconditionError(
        StrCat("worker ", address.ToString(), " instantiated '", ack.program,
               "' with a different file geometry than the plan"));
  }
  return conn;
}

/// Dispatches shard `s` on `conn` and blocks for its result, tolerating
/// any number of heartbeats in between. Every read is bounded by the
/// connection's receive timeout; an expiry surfaces as kResourceExhausted
/// — the straggler signal — and EOF / torn frames as kOutOfRange /
/// kDataLoss, all of which the caller treats as "this worker is lost".
StatusOr<ShardCampaignResult> RunShardOnWorker(Connection& conn,
                                               const ShardPlan& plan, int s,
                                               const std::string& output_dir,
                                               Env* env) {
  RunShardRequest request;
  request.shard = s;
  request.slices = plan.shards[static_cast<size_t>(s)].slices;
  KONDO_RETURN_IF_ERROR(
      WriteKpcFrame(conn, KpcKind::kRunShard, request.Encode()));
  while (true) {
    KONDO_ASSIGN_OR_RETURN(KpcFrame frame, ReadKpcReply(conn));
    if (frame.kind == KpcKind::kHeartbeat) {
      KONDO_ASSIGN_OR_RETURN(HeartbeatMsg beat,
                             HeartbeatMsg::Decode(frame.payload));
      if (beat.shard != s) {
        return DataLossError(StrCat("heartbeat for shard ", beat.shard,
                                    " while shard ", s, " is in flight"));
      }
      continue;  // Liveness only; the read re-armed the timeout.
    }
    if (frame.kind != KpcKind::kShardResult) {
      return DataLossError(
          StrCat("unexpected frame kind while awaiting shard ", s, ": ",
                 static_cast<int>(frame.kind)));
    }
    KONDO_ASSIGN_OR_RETURN(ShardResultMsg result,
                           ShardResultMsg::Decode(frame.payload));
    if (result.shard != s) {
      return DataLossError(StrCat("result for shard ", result.shard,
                                  " while shard ", s, " is in flight"));
    }
    return CommitShardResult(output_dir, plan, result, env);
  }
}

}  // namespace

StatusOr<ShardCampaignResult> CommitShardResult(const std::string& output_dir,
                                                const ShardPlan& plan,
                                                const ShardResultMsg& result,
                                                Env* env) {
  const std::string source =
      StrCat("worker result for shard ", result.shard);
  ShardArtifactInfo info;
  KONDO_ASSIGN_OR_RETURN(
      ShardCampaignResult decoded,
      DecodeShardState(result.kss, source, result.shard, plan.file_shapes,
                       &info));
  if (info.lineage_bytes < 0) {
    return DataLossError(StrCat(source, " carries no lineage fingerprint"));
  }
  if (info.lineage_bytes != static_cast<int64_t>(result.kel2.size()) ||
      info.lineage_crc != Crc32(result.kel2.data(), result.kel2.size())) {
    return DataLossError(
        StrCat(source, ": delivered lineage store does not match the KSS "
                       "fingerprint"));
  }

  // Duplicate tolerance: a shard may complete twice (a requeued dispatch
  // racing a straggler's late result). Artefacts are pure functions of
  // (program, plan, config), so agreement on the fingerprint makes the
  // duplicate a no-op and disagreement a determinism violation.
  const std::string state_path =
      JoinPath(output_dir, ShardStateFileName(result.shard));
  ShardArtifactInfo existing;
  StatusOr<ShardCampaignResult> committed =
      LoadShardState(state_path, result.shard, plan.file_shapes, &existing,
                     env);
  if (committed.ok()) {
    if (existing.lineage_bytes == info.lineage_bytes &&
        existing.lineage_crc == info.lineage_crc) {
      return decoded;
    }
    return InternalError(
        StrCat("duplicate completion for shard ", result.shard,
               " disagrees with the committed artefact fingerprint"));
  }

  // Commit the store first, then the state that vouches for it — the same
  // order the local scheduler uses, so a crash between the two leaves a
  // pending shard, never a state file fingerprinting a missing store.
  {
    StatusOr<AtomicFile> file = AtomicFile::Create(
        JoinPath(output_dir, ShardLineageFileName(result.shard)), env);
    KONDO_RETURN_IF_ERROR(file.status());
    KONDO_RETURN_IF_ERROR(file->Append(result.kel2));
    KONDO_RETURN_IF_ERROR(file->Commit());
  }
  StatusOr<AtomicFile> file = AtomicFile::Create(state_path, env);
  KONDO_RETURN_IF_ERROR(file.status());
  KONDO_RETURN_IF_ERROR(file->Append(result.kss));
  KONDO_RETURN_IF_ERROR(file->Commit());
  return decoded;
}

StatusOr<ShardedRunResult> RunFleetCampaign(const MultiFileProgram& program,
                                            const KondoConfig& config,
                                            const FleetOptions& options) {
  if (options.output_dir.empty()) {
    return InvalidArgumentError(
        "a fleet campaign requires a campaign directory");
  }
  if (options.workers.empty()) {
    return InvalidArgumentError(
        "a fleet campaign requires at least one worker endpoint");
  }

  KONDO_ASSIGN_OR_RETURN(
      CampaignDirectory campaign,
      CampaignDirectory::Open(program, config.rng_seed, options.shards,
                              options.plan_weights, options.output_dir,
                              options.env));

  // Each handshaken link is a one-slot runner: a worker lost mid-shard
  // retires its link, and the shard goes back to the survivors.
  std::vector<ShardRunner> runners;
  if (!campaign.pending.empty()) {
    NetEnv* net = options.net != nullptr ? options.net : NetEnv::Default();
    WorkerHello hello;
    hello.program = std::string(program.name());
    hello.extent = options.program_extent;
    hello.rng_seed = config.rng_seed;
    hello.fuzz = config.fuzz;

    Status last_connect_error;
    for (const SocketAddress& address : options.workers) {
      StatusOr<std::unique_ptr<Connection>> conn =
          HandshakeWorker(net, address, hello, campaign.plan.file_shapes,
                          options.heartbeat_timeout_micros);
      if (!conn.ok()) {
        KONDO_LOG(Warning) << "fleet worker " << address.ToString()
                           << " failed the handshake, skipping: "
                           << conn.status();
        last_connect_error = conn.status();
        continue;
      }
      ShardRunner runner;
      runner.name = "fleet worker " + address.ToString();
      runner.run = [link = std::shared_ptr<Connection>(std::move(*conn)),
                    &campaign](int s) {
        return RunShardOnWorker(*link, campaign.plan, s, campaign.dir,
                                campaign.env);
      };
      runners.push_back(std::move(runner));
    }
    if (runners.empty()) {
      return Status(last_connect_error.code(),
                    StrCat("no fleet worker completed the handshake: ",
                           last_connect_error.message()));
    }
  }

  KONDO_ASSIGN_OR_RETURN(const int committed_now,
                         DispatchShards(campaign, runners));
  runners.clear();  // Hangs up on the workers before the merge.
  return campaign.Finish(config, committed_now);
}

}  // namespace kondo
