// Tests for the distributed shard fleet (src/fleet/): KPC worker-verb
// payload round-trips, byte-identity of the fleet-merged campaign against
// the local scheduler at every worker count, re-dispatch after injected
// connection kills and straggler timeouts, duplicate-completion
// fingerprint tolerance, and the per-shard dispatch budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/net_fault.h"
#include "common/socket.h"
#include "exec/campaign_executor.h"
#include "fleet/fleet_protocol.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fleet_worker.h"
#include "provenance/crc32.h"
#include "provenance/persist.h"
#include "serve/kpc.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"
#include "shard/shard_plan.h"
#include "shard/shard_scheduler.h"
#include "workloads/multi_file_program.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A per-test directory, wiped up front. Unix socket paths must stay under
/// sockaddr_un's ~100-byte limit, so the names are kept short.
std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fleet_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A short, budget-bounded campaign: bit-comparable across jobs and worker
/// counts, quick enough for the worker-count sweep.
KondoConfig ShortCampaignConfig(uint64_t seed) {
  KondoConfig config;
  config.rng_seed = seed;
  config.fuzz.max_evals = 400;
  return config;
}

/// The fleet campaigns here all run the registry STORM program at a small
/// extent; coordinator and worker instantiate it independently, which is
/// exactly the production path.
constexpr int64_t kExtent = 24;

std::unique_ptr<MultiFileProgram> TestProgram() {
  return CreateMultiFileProgram("STORM", kExtent);
}

/// Starts `count` in-process fleet workers on unix sockets under `dir`,
/// applying `tweak` (may be null) to each worker's options before Start.
std::vector<std::unique_ptr<FleetWorker>> StartWorkers(
    const std::string& dir, int count,
    void (*tweak)(int index, FleetWorkerOptions*) = nullptr) {
  std::vector<std::unique_ptr<FleetWorker>> workers;
  for (int i = 0; i < count; ++i) {
    FleetWorkerOptions options;
    options.address.unix_path = dir + "/w" + std::to_string(i) + ".sock";
    options.scratch_dir = dir + "/w" + std::to_string(i);
    options.heartbeat_micros = 20'000;
    if (tweak != nullptr) {
      tweak(i, &options);
    }
    auto worker = std::make_unique<FleetWorker>(options);
    const Status started = worker->Start();
    EXPECT_TRUE(started.ok()) << started;
    workers.push_back(std::move(worker));
  }
  return workers;
}

std::vector<SocketAddress> Endpoints(
    const std::vector<std::unique_ptr<FleetWorker>>& workers) {
  std::vector<SocketAddress> endpoints;
  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    endpoints.push_back(worker->bound_address());
  }
  return endpoints;
}

// ---------------------------------------------- protocol round-trips --

TEST(FleetProtocolTest, WorkerHelloRoundTripsEveryField) {
  WorkerHello hello;
  hello.program = "STORM";
  hello.extent = 48;
  hello.rng_seed = 0xdeadbeefcafe1234ull;
  hello.fuzz.max_iter = 77;
  hello.fuzz.max_evals = 1234;
  hello.fuzz.decay = 0.625;
  hello.fuzz.init_seeds = 9;

  const StatusOr<WorkerHello> decoded = WorkerHello::Decode(hello.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->program, "STORM");
  EXPECT_EQ(decoded->extent, 48);
  EXPECT_EQ(decoded->rng_seed, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(decoded->fuzz.max_iter, 77);
  EXPECT_EQ(decoded->fuzz.max_evals, 1234);
  EXPECT_EQ(decoded->fuzz.decay, 0.625);
  EXPECT_EQ(decoded->fuzz.init_seeds, 9);
}

TEST(FleetProtocolTest, WorkerHelloAckRoundTripsShapes) {
  WorkerHelloAck ack;
  ack.program = "STORM";
  ack.file_shapes = {Shape{24, 24}, Shape{12, 12, 16}};
  const StatusOr<WorkerHelloAck> decoded =
      WorkerHelloAck::Decode(ack.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->program, "STORM");
  EXPECT_EQ(decoded->file_shapes, ack.file_shapes);
}

TEST(FleetProtocolTest, WorkerHelloAckRejectsShapesOutsideTheBounds) {
  const int64_t big = int64_t{1} << 31;
  const std::vector<std::vector<int64_t>> bad_shapes = {
      {1, 1, 1, 1, 1},  // Rank above kMaxRank.
      {},               // Rank zero.
      {4, 0},           // Non-positive dim.
      {big, big, big},  // 2^93 elements.
  };
  for (const std::vector<int64_t>& dims : bad_shapes) {
    SCOPED_TRACE(dims.size());
    std::string wire;
    AppendString("STORM", &wire);
    AppendU32(1, &wire);  // One file.
    AppendU32(static_cast<uint32_t>(dims.size()), &wire);
    for (int64_t dim : dims) {
      AppendI64(dim, &wire);
    }
    EXPECT_EQ(WorkerHelloAck::Decode(wire).status().code(),
              StatusCode::kDataLoss);
  }
  // A rank the payload cannot hold is refused before any allocation.
  std::string wire;
  AppendString("STORM", &wire);
  AppendU32(1, &wire);
  AppendU32(0xffffffffu, &wire);
  EXPECT_EQ(WorkerHelloAck::Decode(wire).status().code(),
            StatusCode::kDataLoss);
}

TEST(FleetProtocolTest, RunShardRequestRoundTripsSlices) {
  RunShardRequest request;
  request.shard = 3;
  request.slices = {{0, 0, 100}, {1, 64, 256}};
  const StatusOr<RunShardRequest> decoded =
      RunShardRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->shard, 3);
  EXPECT_EQ(decoded->slices, request.slices);
}

TEST(FleetProtocolTest, HeartbeatAndResultRoundTrip) {
  HeartbeatMsg beat;
  beat.shard = 2;
  beat.sequence = 41;
  const StatusOr<HeartbeatMsg> beat2 = HeartbeatMsg::Decode(beat.Encode());
  ASSERT_TRUE(beat2.ok()) << beat2.status();
  EXPECT_EQ(beat2->shard, 2);
  EXPECT_EQ(beat2->sequence, 41);

  ShardResultMsg result;
  result.shard = 5;
  result.kss = std::string("KSS1 bytes\0with nul", 19);
  result.kel2 = "lineage bytes";
  const StatusOr<ShardResultMsg> result2 =
      ShardResultMsg::Decode(result.Encode());
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_EQ(result2->shard, 5);
  EXPECT_EQ(result2->kss, result.kss);
  EXPECT_EQ(result2->kel2, result.kel2);
}

TEST(FleetProtocolTest, TruncatedAndPaddedPayloadsAreRejected) {
  WorkerHello hello;
  hello.program = "STORM";
  const std::string wire = hello.Encode();
  for (size_t cut : {size_t{0}, size_t{3}, wire.size() - 1}) {
    EXPECT_FALSE(WorkerHello::Decode(wire.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  // Trailing bytes mean a framing bug, not forward compatibility.
  EXPECT_FALSE(WorkerHello::Decode(wire + "x").ok());

  RunShardRequest request;
  request.shard = 1;
  request.slices = {{0, 0, 8}};
  const std::string req_wire = request.Encode();
  EXPECT_FALSE(RunShardRequest::Decode(req_wire.substr(0, 5)).ok());
  EXPECT_FALSE(RunShardRequest::Decode(req_wire + "y").ok());
}

// ------------------------------------------------- fleet determinism --

TEST(FleetCampaignTest, MergedResultIsByteIdenticalAtEveryWorkerCount) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const KondoConfig config = ShortCampaignConfig(19);

  ShardOptions local;
  local.shards = 4;
  local.output_dir = TempDir("base");
  const StatusOr<ShardedRunResult> baseline =
      RunShardedCampaign(*program, config, local);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(baseline->complete);
  const std::string reference = ReadFileBytes(baseline->merged_lineage_path);
  ASSERT_FALSE(reference.empty());

  for (int count : {1, 2, 4}) {
    const std::string dir = TempDir("n" + std::to_string(count));
    ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
    std::vector<std::unique_ptr<FleetWorker>> workers =
        StartWorkers(dir, count);

    FleetOptions options;
    options.shards = 4;
    options.output_dir = dir + "/campaign";
    options.workers = Endpoints(workers);
    options.program_extent = kExtent;
    const StatusOr<ShardedRunResult> fleet =
        RunFleetCampaign(*program, config, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    ASSERT_TRUE(fleet->complete);
    EXPECT_EQ(fleet->shards_fuzzed_now, 4) << "workers=" << count;
    EXPECT_EQ(ReadFileBytes(fleet->merged_lineage_path), reference)
        << "merged.kel2 differs at workers=" << count;
    EXPECT_EQ(fleet->merged.fuzz_stats.evaluations,
              baseline->merged.fuzz_stats.evaluations);
    for (size_t f = 0; f < baseline->merged.per_file_approx.size(); ++f) {
      EXPECT_EQ(fleet->merged.per_file_approx[f].ToSortedLinearIds(),
                baseline->merged.per_file_approx[f].ToSortedLinearIds())
          << "workers=" << count << ", file " << f;
    }
    for (const std::unique_ptr<FleetWorker>& worker : workers) {
      worker->Stop();
    }
  }
}

/// Descriptors this process holds open: coordinator-side connections and
/// the in-process workers alike.
int OpenDescriptors() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    static_cast<void>(entry);
    ++count;
  }
  return count;
}

TEST(FleetWorkerTest, FinishedCoordinatorSessionsAreReaped) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const KondoConfig config = ShortCampaignConfig(19);

  ShardOptions local;
  local.shards = 4;
  local.output_dir = TempDir("reapbase");
  const StatusOr<ShardedRunResult> baseline =
      RunShardedCampaign(*program, config, local);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string reference = ReadFileBytes(baseline->merged_lineage_path);

  const std::string dir = TempDir("reap");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  std::vector<std::unique_ptr<FleetWorker>> workers = StartWorkers(dir, 1);
  WorkerHello hello;
  hello.program = "STORM";
  hello.extent = kExtent;
  const int before = OpenDescriptors();
  for (int i = 0; i < 100; ++i) {
    StatusOr<std::unique_ptr<Connection>> conn =
        NetEnv::Default()->Connect(workers[0]->bound_address());
    ASSERT_TRUE(conn.ok()) << conn.status();
    ASSERT_TRUE(WriteKpcFrame(**conn, KpcKind::kHello, hello.Encode()).ok());
    const StatusOr<KpcFrame> ack = ReadKpcFrame(**conn);
    ASSERT_TRUE(ack.ok()) << "hello " << i << ": " << ack.status();
    EXPECT_EQ(ack->kind, KpcKind::kHello);
  }
  // Ended sessions are reaped at the next accept; only the last few may
  // still hold their worker-side descriptor.
  EXPECT_LE(OpenDescriptors() - before, 8);

  // The worker that served (and reaped) them still runs a campaign.
  FleetOptions options;
  options.shards = 4;
  options.output_dir = dir + "/campaign";
  options.workers = Endpoints(workers);
  options.program_extent = kExtent;
  const StatusOr<ShardedRunResult> fleet =
      RunFleetCampaign(*program, config, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ASSERT_TRUE(fleet->complete);
  EXPECT_EQ(ReadFileBytes(fleet->merged_lineage_path), reference);
  workers[0]->Stop();
}

TEST(FleetCampaignTest, KilledWorkerConnectionIsReDispatched) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const KondoConfig config = ShortCampaignConfig(19);

  ShardOptions local;
  local.shards = 3;
  local.output_dir = TempDir("killbase");
  const StatusOr<ShardedRunResult> baseline =
      RunShardedCampaign(*program, config, local);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string reference = ReadFileBytes(baseline->merged_lineage_path);

  const std::string dir = TempDir("kill");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  std::vector<std::unique_ptr<FleetWorker>> workers = StartWorkers(dir, 2);

  // Coordinator-side fault: connection ordinal 0 (the first worker link)
  // tears its second write — the first kRunShard frame — mid-frame. The
  // worker sees a torn stream, the coordinator's next read fails, and the
  // shard must be re-dispatched to the surviving worker.
  NetFaultPlan plan;
  plan.drop_connection = 0;
  plan.drop_after_writes = 1;
  plan.short_frame_bytes = 5;
  FaultInjectingNetEnv net(NetEnv::Default(), plan);

  FleetOptions options;
  options.shards = 3;
  options.output_dir = dir + "/campaign";
  options.workers = Endpoints(workers);
  options.program_extent = kExtent;
  options.net = &net;
  const StatusOr<ShardedRunResult> fleet =
      RunFleetCampaign(*program, config, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ASSERT_TRUE(fleet->complete);
  EXPECT_GE(net.faults_injected(), 1);
  EXPECT_EQ(ReadFileBytes(fleet->merged_lineage_path), reference);

  // The kill consumed a dispatch: the manifest's W lines must show more
  // dispatches than shards.
  const StatusOr<ShardManifest> manifest = LoadShardManifest(
      options.output_dir + "/" + kShardManifestFileName);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  int total_dispatches = 0;
  for (int count : manifest->dispatch_counts) {
    total_dispatches += count;
  }
  EXPECT_GT(total_dispatches, manifest->num_shards());

  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    worker->Stop();
  }
}

TEST(FleetCampaignTest, StragglerTimesOutAndShardIsReassigned) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const KondoConfig config = ShortCampaignConfig(19);

  ShardOptions local;
  local.shards = 3;
  local.output_dir = TempDir("slowbase");
  const StatusOr<ShardedRunResult> baseline =
      RunShardedCampaign(*program, config, local);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string reference = ReadFileBytes(baseline->merged_lineage_path);

  const std::string dir = TempDir("slow");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  // Worker 0 is a deliberate straggler: heartbeats suppressed and every
  // result stalled well past the coordinator's timeout, so it goes silent
  // exactly like a wedged process.
  std::vector<std::unique_ptr<FleetWorker>> workers = StartWorkers(
      dir, 2, [](int index, FleetWorkerOptions* options) {
        if (index == 0) {
          options->heartbeat_micros = 0;
          options->result_stall_micros = 2'000'000;
        }
      });

  FleetOptions options;
  options.shards = 3;
  options.output_dir = dir + "/campaign";
  options.workers = Endpoints(workers);
  options.program_extent = kExtent;
  options.heartbeat_timeout_micros = 150'000;
  const StatusOr<ShardedRunResult> fleet =
      RunFleetCampaign(*program, config, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ASSERT_TRUE(fleet->complete);
  EXPECT_EQ(ReadFileBytes(fleet->merged_lineage_path), reference);

  const StatusOr<ShardManifest> manifest = LoadShardManifest(
      options.output_dir + "/" + kShardManifestFileName);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  int total_dispatches = 0;
  for (int count : manifest->dispatch_counts) {
    total_dispatches += count;
  }
  EXPECT_GT(total_dispatches, manifest->num_shards());

  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    worker->Stop();
  }
}

// --------------------------------------- duplicate-completion commits --

/// Runs shard `s` of `plan` locally and seals its artefacts into a
/// ShardResultMsg — exactly what a worker ships in kShardResult.
StatusOr<ShardResultMsg> MakeShardResult(const MultiFileProgram& program,
                                         const ShardPlan& plan, int s,
                                         const KondoConfig& config,
                                         const std::string& scratch) {
  const std::string lineage_path =
      scratch + "/made-" + std::to_string(s) + ".kel2";
  KONDO_ASSIGN_OR_RETURN(CampaignLineageSink sink,
                         CampaignLineageSink::Create(lineage_path, {}));
  CampaignExecutor executor(1);
  KONDO_ASSIGN_OR_RETURN(
      ShardCampaignResult run,
      RunShardCampaign(program, plan, plan.shards[static_cast<size_t>(s)],
                       config, executor, sink.persister()));
  KONDO_RETURN_IF_ERROR(sink.Close());
  std::string kel2;
  KONDO_RETURN_IF_ERROR(ReadFileToString(lineage_path, &kel2));
  ShardArtifactInfo info;
  info.lineage_bytes = static_cast<int64_t>(kel2.size());
  info.lineage_crc = Crc32(kel2.data(), kel2.size());
  ShardResultMsg result;
  result.shard = s;
  result.kss = EncodeShardState(s, run, info);
  result.kel2 = std::move(kel2);
  return result;
}

TEST(CommitShardResultTest, DuplicateAgreementIsIdempotent) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  std::vector<Shape> shapes;
  for (int f = 0; f < program->num_files(); ++f) {
    shapes.push_back(program->file_shape(f));
  }
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::string dir = TempDir("dup");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const KondoConfig config = ShortCampaignConfig(7);
  const StatusOr<ShardResultMsg> result =
      MakeShardResult(*program, *plan, 0, config, dir);
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_TRUE(CommitShardResult(dir, *plan, *result).ok());
  const std::string kel2_bytes =
      ReadFileBytes(dir + "/" + ShardLineageFileName(0));
  // The second, identical completion is a no-op: same status, artefacts
  // untouched.
  const StatusOr<ShardCampaignResult> again =
      CommitShardResult(dir, *plan, *result);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(ReadFileBytes(dir + "/" + ShardLineageFileName(0)), kel2_bytes);
}

TEST(CommitShardResultTest, DuplicateDisagreementIsInternalError) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  std::vector<Shape> shapes;
  for (int f = 0; f < program->num_files(); ++f) {
    shapes.push_back(program->file_shape(f));
  }
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::string dir = TempDir("dup2");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const StatusOr<ShardResultMsg> first =
      MakeShardResult(*program, *plan, 0, ShortCampaignConfig(7), dir);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(CommitShardResult(dir, *plan, *first).ok());

  // A different seed produces a self-consistent but different artefact
  // pair for the same shard id — a determinism violation, not a resend.
  const StatusOr<ShardResultMsg> second =
      MakeShardResult(*program, *plan, 0, ShortCampaignConfig(8), dir);
  ASSERT_TRUE(second.ok()) << second.status();
  const StatusOr<ShardCampaignResult> clash =
      CommitShardResult(dir, *plan, *second);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kInternal)
      << clash.status();
}

TEST(CommitShardResultTest, TamperedLineageBytesAreRejectedBeforeCommit) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  std::vector<Shape> shapes;
  for (int f = 0; f < program->num_files(); ++f) {
    shapes.push_back(program->file_shape(f));
  }
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::string dir = TempDir("tamper");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  StatusOr<ShardResultMsg> result =
      MakeShardResult(*program, *plan, 1, ShortCampaignConfig(7), dir);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->kel2.empty());
  result->kel2[result->kel2.size() / 2] ^= 0x40;

  const StatusOr<ShardCampaignResult> commit =
      CommitShardResult(dir, *plan, *result);
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kDataLoss) << commit.status();
  // Nothing may have touched the campaign directory.
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + ShardStateFileName(1)));
}

// ------------------------------------------------------ dispatch budget --

TEST(FleetCampaignTest, ExhaustedDispatchBudgetFailsTheCampaign) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const KondoConfig config = ShortCampaignConfig(19);
  std::vector<Shape> shapes;
  for (int f = 0; f < program->num_files(); ++f) {
    shapes.push_back(program->file_shape(f));
  }
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const std::string dir = TempDir("budget");
  const std::string campaign = dir + "/campaign";
  ASSERT_TRUE(EnsureCampaignDirectory(campaign).ok());
  // A manifest whose shard 0 already burned every allowed dispatch — the
  // state a coordinator leaves behind after repeated worker losses.
  ShardManifest manifest = MakeShardManifest(*plan, config.rng_seed);
  manifest.dispatch_counts[0] = 3;
  ASSERT_TRUE(SaveShardManifest(campaign + "/" + kShardManifestFileName,
                                manifest)
                  .ok());

  std::vector<std::unique_ptr<FleetWorker>> workers = StartWorkers(dir, 1);
  FleetOptions options;
  options.shards = 2;
  options.output_dir = campaign;
  options.workers = Endpoints(workers);
  options.program_extent = kExtent;
  const StatusOr<ShardedRunResult> fleet =
      RunFleetCampaign(*program, config, options);
  ASSERT_FALSE(fleet.ok());
  EXPECT_EQ(fleet.status().code(), StatusCode::kInternal) << fleet.status();
  EXPECT_NE(fleet.status().ToString().find("dispatch budget"),
            std::string::npos)
      << fleet.status();

  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    worker->Stop();
  }
}

// A fleet whose every handshake fails never starts, so it leaves no
// campaign behind for a later invocation to trip over.
TEST(FleetCampaignTest, FailedHandshakesLeaveNoManifest) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const std::string dir = TempDir("unreachable");
  SocketAddress missing;
  missing.unix_path = dir + "/missing.sock";
  FleetOptions options;
  options.shards = 4;
  options.output_dir = dir + "/campaign";
  options.workers = {missing};
  options.program_extent = kExtent;
  const StatusOr<ShardedRunResult> fleet =
      RunFleetCampaign(*program, ShortCampaignConfig(23), options);
  EXPECT_FALSE(fleet.ok());
  EXPECT_NE(fleet.status().ToString().find("handshake"), std::string::npos)
      << fleet.status();
  EXPECT_FALSE(std::filesystem::exists(options.output_dir + "/" +
                                       kShardManifestFileName));
}

// ---------------------------------------------------- resume interplay --

TEST(FleetCampaignTest, FleetResumesALocalCampaignAndViceVersa) {
  const std::unique_ptr<MultiFileProgram> program = TestProgram();
  const KondoConfig config = ShortCampaignConfig(19);

  // Local runs one shard, the fleet finishes the campaign; the merged
  // bytes must match a purely local run.
  ShardOptions reference_options;
  reference_options.shards = 3;
  reference_options.output_dir = TempDir("mixbase");
  const StatusOr<ShardedRunResult> reference =
      RunShardedCampaign(*program, config, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  const std::string dir = TempDir("mix");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  ShardOptions paced;
  paced.shards = 3;
  paced.output_dir = dir + "/campaign";
  paced.max_shards_this_run = 1;
  const StatusOr<ShardedRunResult> partial =
      RunShardedCampaign(*program, config, paced);
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_FALSE(partial->complete);

  std::vector<std::unique_ptr<FleetWorker>> workers = StartWorkers(dir, 2);
  FleetOptions options;
  options.shards = 3;
  options.output_dir = paced.output_dir;
  options.workers = Endpoints(workers);
  options.program_extent = kExtent;
  const StatusOr<ShardedRunResult> fleet =
      RunFleetCampaign(*program, config, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ASSERT_TRUE(fleet->complete);
  EXPECT_EQ(fleet->shards_fuzzed_now, 2);
  EXPECT_EQ(ReadFileBytes(fleet->merged_lineage_path),
            ReadFileBytes(reference->merged_lineage_path));

  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    worker->Stop();
  }
}

}  // namespace
}  // namespace kondo
