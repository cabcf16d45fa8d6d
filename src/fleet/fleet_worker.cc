#include "fleet/fleet_worker.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/kondo.h"
#include "exec/campaign_executor.h"
#include "serve/kpc.h"
#include "shard/shard_campaign.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

/// Sleeps in 1ms slices until `total_micros` elapse or `cancel` returns
/// true — a blocking wait (not a busy one), polled so Stop() is never held
/// hostage by a long stall.
template <typename CancelFn>
void InterruptibleSleep(int64_t total_micros, const CancelFn& cancel) {
  constexpr int64_t kSliceMicros = 1000;
  for (int64_t waited = 0; waited < total_micros && !cancel();
       waited += kSliceMicros) {
    std::this_thread::sleep_for(std::chrono::microseconds(kSliceMicros));
  }
}

/// Instantiates the program a WorkerHello names from the workloads
/// registry: multi-file programs first, then single-file programs wrapped
/// in a SingleFileProgramAdapter. nullptr for unknown names.
std::unique_ptr<MultiFileProgram> CreateFleetProgram(const std::string& name,
                                                     int64_t extent) {
  std::unique_ptr<MultiFileProgram> multi =
      CreateMultiFileProgram(name, extent);
  if (multi != nullptr) {
    return multi;
  }
  std::unique_ptr<Program> single = CreateProgram(name, extent);
  if (single == nullptr) {
    return nullptr;
  }
  return std::make_unique<SingleFileProgramAdapter>(std::move(single));
}

}  // namespace

FleetWorker::FleetWorker(FleetWorkerOptions options)
    : options_(std::move(options)),
      host_(
          [this](Connection& conn, int64_t id) {
            return std::make_unique<Session>(this, conn, id);
          },
          [](int64_t id, const Status& ended) {
            if (ended.code() != StatusCode::kOutOfRange) {
              KONDO_LOG(Warning) << "fleet worker session " << id
                                 << " dropped: " << ended;
            }
          }) {}

FleetWorker::~FleetWorker() { Stop(); }

Status FleetWorker::Start() {
  KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(options_.scratch_dir));
  return host_.Start(options_.net != nullptr ? options_.net : NetEnv::Default(),
                     options_.address);
}

void FleetWorker::Stop() { host_.Stop(); }

int64_t FleetWorker::shards_served() const {
  MutexLock lock(mu_);
  return shards_served_;
}

Status FleetWorker::Session::Handle(const KpcFrame& frame) {
  switch (frame.kind) {
    case KpcKind::kHello:
      return worker->HandleHello(this, frame);
    case KpcKind::kRunShard:
      return worker->HandleRunShard(this, frame);
    default:
      return InvalidArgumentError(
          StrCat("unexpected frame kind on worker connection: ",
                 static_cast<int>(frame.kind)));
  }
}

Status FleetWorker::Session::Send(KpcKind kind, std::string_view payload) {
  MutexLock lock(send_mu);
  ++frames_sent;
  return WriteKpcFrame(conn, kind, payload);
}

Status FleetWorker::HandleHello(Session* session, const KpcFrame& frame) {
  KONDO_ASSIGN_OR_RETURN(WorkerHello hello,
                         WorkerHello::Decode(frame.payload));
  std::unique_ptr<MultiFileProgram> program =
      CreateFleetProgram(hello.program, hello.extent);
  if (program == nullptr) {
    const Status unknown =
        NotFoundError(StrCat("unknown fleet program: ", hello.program));
    KONDO_RETURN_IF_ERROR(session->Send(
        KpcKind::kError, KpcError::FromStatus(unknown).Encode()));
    return unknown;
  }

  session->plan = ShardPlan();
  session->plan.offsets.push_back(0);
  for (int f = 0; f < program->num_files(); ++f) {
    const Shape& shape = program->file_shape(f);
    session->plan.file_shapes.push_back(shape);
    session->plan.offsets.push_back(session->plan.offsets.back() +
                                    shape.NumElements());
  }
  session->fuzz = hello.fuzz;
  session->rng_seed = hello.rng_seed;
  session->program = std::move(program);

  WorkerHelloAck ack;
  ack.program = std::string(session->program->name());
  ack.file_shapes = session->plan.file_shapes;
  return session->Send(KpcKind::kHello, ack.Encode());
}

Status FleetWorker::HandleRunShard(Session* session, const KpcFrame& frame) {
  if (session->program == nullptr) {
    return FailedPreconditionError("kRunShard before kHello");
  }
  KONDO_ASSIGN_OR_RETURN(RunShardRequest request,
                         RunShardRequest::Decode(frame.payload));
  StatusOr<ShardResultMsg> result = RunAssignedShard(session, request);
  if (!result.ok()) {
    // Application failure (scratch IO, bad slices): report it and keep the
    // session — the coordinator decides whether to retire this worker.
    return session->Send(KpcKind::kError,
                         KpcError::FromStatus(result.status()).Encode());
  }
  KONDO_RETURN_IF_ERROR(
      session->Send(KpcKind::kShardResult, result->Encode()));
  MutexLock lock(mu_);
  ++shards_served_;
  return OkStatus();
}

StatusOr<ShardResultMsg> FleetWorker::RunAssignedShard(
    Session* session, const RunShardRequest& request) {
  const ShardPlan& plan = session->plan;
  for (const ShardSlice& slice : request.slices) {
    if (slice.file >= plan.num_files() ||
        slice.end >
            plan.file_shapes[static_cast<size_t>(slice.file)].NumElements()) {
      return InvalidArgumentError(
          StrCat("shard ", request.shard,
                 " slice exceeds the program's file geometry"));
    }
  }
  Shard shard;
  shard.id = request.shard;
  shard.slices = request.slices;

  char name[64];
  std::snprintf(name, sizeof(name), "w%03lld-shard-%03d.kel2",
                static_cast<long long>(session->id), request.shard);
  const std::string lineage_path = options_.scratch_dir + "/" + name;

  // Heartbeats cover exactly the campaign: started before, stopped (and
  // joined) before the result stall and the result write, so a suppressed
  // or stalled worker goes silent the way a wedged one would.
  std::atomic<bool> campaign_done{false};
  std::thread heartbeat;
  if (options_.heartbeat_micros > 0) {
    heartbeat = std::thread([this, session, &campaign_done,
                             shard_id = request.shard] {
      int64_t sequence = 0;
      while (!campaign_done.load()) {
        InterruptibleSleep(options_.heartbeat_micros,
                           [&campaign_done] { return campaign_done.load(); });
        if (campaign_done.load()) {
          return;
        }
        HeartbeatMsg beat;
        beat.shard = shard_id;
        beat.sequence = sequence++;
        if (!session->Send(KpcKind::kHeartbeat, beat.Encode()).ok()) {
          return;  // Peer gone; the result write will surface it.
        }
      }
    });
  }
  const auto finish_heartbeat = [&campaign_done, &heartbeat] {
    campaign_done.store(true);
    if (heartbeat.joinable()) {
      heartbeat.join();
    }
  };

  KondoConfig config;
  config.fuzz = session->fuzz;
  config.rng_seed = session->rng_seed;
  config.jobs = options_.jobs;
  CampaignExecutor executor(options_.jobs);
  StatusOr<SealedShard> sealed =
      RunSealedShard(*session->program, plan, shard, config, executor,
                     lineage_path, options_.env);
  finish_heartbeat();
  KONDO_RETURN_IF_ERROR(sealed.status());

  ShardResultMsg result;
  result.shard = request.shard;
  result.kss = EncodeShardState(request.shard, sealed->result, sealed->info);
  result.kel2 = std::move(sealed->kel2);

  if (options_.result_stall_micros > 0) {
    InterruptibleSleep(options_.result_stall_micros,
                       [this] { return host_.stopping(); });
  }
  return result;
}

}  // namespace kondo
