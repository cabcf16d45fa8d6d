#include "fleet/fleet_scheduler.h"

#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "provenance/crc32.h"
#include "serve/kpc.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"

namespace kondo {
namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// Shared dispatch state of one fleet run. Worker threads take shards from
/// `pending`, mirror every transition into the manifest, and wake each
/// other through `cv` — a retired worker requeues its shard, so a waiting
/// peer always observes either new work or a drained campaign.
struct FleetState {
  Mutex mu;
  CondVar cv;
  std::deque<int> pending KONDO_GUARDED_BY(mu);
  int in_flight KONDO_GUARDED_BY(mu) = 0;
  int committed_now KONDO_GUARDED_BY(mu) = 0;
  Status fatal KONDO_GUARDED_BY(mu);
  Status last_worker_error KONDO_GUARDED_BY(mu);
};

/// One connected, handshaken worker endpoint and the thread driving it.
struct FleetWorkerLink {
  SocketAddress address;
  std::unique_ptr<Connection> conn;
  std::thread thread;
};

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
  FleetState state;
  state.pending.assign(campaign.pending.begin(), campaign.pending.end());

  if (!state.pending.empty()) {
    NetEnv* net = options.net != nullptr ? options.net : NetEnv::Default();
    WorkerHello hello;
    hello.program = std::string(program.name());
    hello.extent = options.program_extent;
    hello.rng_seed = config.rng_seed;
    hello.fuzz = config.fuzz;

    std::vector<std::unique_ptr<FleetWorkerLink>> links;
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
      auto link = std::make_unique<FleetWorkerLink>();
      link->address = address;
      link->conn = std::move(*conn);
      links.push_back(std::move(link));
    }
    if (links.empty()) {
      return Status(last_connect_error.code(),
                    StrCat("no fleet worker completed the handshake: ",
                           last_connect_error.message()));
    }

    const auto worker_loop = [&campaign, &state,
                              &options](FleetWorkerLink* link) {
      while (true) {
        int s = -1;
        {
          MutexLock lock(state.mu);
          while (state.pending.empty() && state.in_flight > 0 &&
                 state.fatal.ok()) {
            state.cv.Wait(state.mu);
          }
          if (!state.fatal.ok() || state.pending.empty()) {
            return;  // Fatal error, or every shard is committed.
          }
          s = state.pending.front();
          state.pending.pop_front();
          const int dispatches =
              campaign.manifest.dispatch_counts[static_cast<size_t>(s)];
          if (dispatches >= options.max_dispatches) {
            state.fatal = InternalError(StrCat(
                "shard ", s, " exhausted its dispatch budget (",
                dispatches, " dispatches): last worker error: ",
                state.last_worker_error.message()));
            state.cv.NotifyAll();
            return;
          }
          campaign.manifest.dispatch_counts[static_cast<size_t>(s)] =
              dispatches + 1;
          ++state.in_flight;
          const Status saved = campaign.SaveManifest();
          if (!saved.ok()) {
            state.fatal = saved;
            state.cv.NotifyAll();
            return;
          }
        }

        StatusOr<ShardCampaignResult> run = RunShardOnWorker(
            *link->conn, campaign.plan, s, campaign.dir, campaign.env);

        MutexLock lock(state.mu);
        --state.in_flight;
        if (!run.ok()) {
          // Straggler timeout, crash, torn stream, or worker-reported
          // failure: requeue the shard for a surviving worker and retire
          // this connection — exactly how resume demotes a damaged shard.
          KONDO_LOG(Warning) << "fleet worker " << link->address.ToString()
                             << " lost on shard " << s << ": "
                             << run.status();
          state.last_worker_error = run.status();
          state.pending.push_back(s);
          state.cv.NotifyAll();
          return;
        }
        campaign.results[static_cast<size_t>(s)] = std::move(*run);
        campaign.manifest.statuses[static_cast<size_t>(s)] =
            ShardStatus::kFuzzed;
        ++state.committed_now;
        const Status saved = campaign.SaveManifest();
        if (!saved.ok() && state.fatal.ok()) {
          state.fatal = saved;
        }
        state.cv.NotifyAll();
      }
    };

    for (const std::unique_ptr<FleetWorkerLink>& link : links) {
      link->thread = std::thread(worker_loop, link.get());
    }
    for (const std::unique_ptr<FleetWorkerLink>& link : links) {
      link->thread.join();
    }

    MutexLock lock(state.mu);
    if (!state.fatal.ok()) {
      return state.fatal;
    }
    if (!state.pending.empty()) {
      return Status(
          state.last_worker_error.code(),
          StrCat("all fleet workers were lost with ", state.pending.size(),
                 " shard(s) pending (progress is preserved in ",
                 campaign.PathOf(kShardManifestFileName),
                 "): ", state.last_worker_error.message()));
    }
  }

  int committed_now = 0;
  {
    MutexLock lock(state.mu);
    committed_now = state.committed_now;
  }
  return campaign.Finish(config, committed_now);
}

}  // namespace kondo
