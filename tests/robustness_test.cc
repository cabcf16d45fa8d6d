// Fault-injection and durability tests: the AtomicFile commit protocol,
// deterministic fault schedules (FaultInjectingEnv), crash-safe artifact
// writers (event store, KEL2, KSM/KSS), resume of a sharded campaign after
// a simulated crash at *every* injection point, detection and re-run of
// corrupted shard artifacts, a read-fault sweep (EIO, short reads, bit
// flips) over every reader entry point, deterministic retry/quarantine of
// failing debloat tests, and the retrying/degraded-mode fetching runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "common/env.h"
#include "common/logging.h"
#include "core/debloat_test.h"
#include "core/runtime.h"
#include "fuzz/fuzz_schedule.h"
#include "pack_fixture.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/provenance_query.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"
#include "shard/shard_scheduler.h"
#include "support/fault_env.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

/// Fault seed swept by CI through KONDO_FAULT_SEED; every deterministic
/// injection claim must hold at any seed.
uint64_t FaultSeed() {
  if (const char* env = std::getenv("KONDO_FAULT_SEED")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed != 0) {
      return parsed;
    }
  }
  return 1;
}

/// A per-test scratch directory, wiped up front and created empty.
std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/robustness_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileMissing(const std::string& path) {
  return !std::filesystem::exists(path);
}

/// Flips one bit in the middle of `path` (size unchanged, content damaged).
void FlipByte(const std::string& path) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty()) << path;
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Drops the last `drop` bytes of `path` — the torn tail a crash leaves.
void TruncateTail(const std::string& path, size_t drop) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), drop) << path;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - drop));
}

// ------------------------------------------------------------ AtomicFile --

TEST(AtomicFileTest, CommitPublishesExactBytesAndRemovesTmp) {
  const std::string dir = TempDir("atomic_commit");
  const std::string path = dir + "/artifact.bin";
  StatusOr<AtomicFile> file = AtomicFile::Create(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE(file->Append("hello ").ok());
  ASSERT_TRUE(file->Append("world").ok());
  // Uncommitted: the final path must not exist yet.
  EXPECT_TRUE(FileMissing(path));
  ASSERT_TRUE(file->Commit().ok());
  EXPECT_FALSE(file->open());
  EXPECT_EQ(ReadFileBytes(path), "hello world");
  EXPECT_TRUE(FileMissing(path + ".tmp"));
}

TEST(AtomicFileTest, DestructionWithoutCommitDiscardsTheTmpFile) {
  const std::string dir = TempDir("atomic_discard");
  const std::string path = dir + "/artifact.bin";
  {
    StatusOr<AtomicFile> file = AtomicFile::Create(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->Append("doomed").ok());
  }
  EXPECT_TRUE(FileMissing(path));
  EXPECT_TRUE(FileMissing(path + ".tmp"));
}

TEST(AtomicFileTest, WriteFailurePoisonsCommitAndPublishesNothing) {
  const std::string dir = TempDir("atomic_poison");
  const std::string path = dir + "/artifact.bin";
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.enospc_at_op = 0;
  FaultInjectingEnv env(Env::Default(), plan);
  StatusOr<AtomicFile> file = AtomicFile::Create(path, &env);
  ASSERT_TRUE(file.ok()) << file.status();
  const Status write = file->Append("vanishes");
  EXPECT_EQ(write.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsInjectedFault(write)) << write;
  // A poisoned file refuses further writes and refuses to publish.
  EXPECT_EQ(file->Append("more").code(), StatusCode::kFailedPrecondition);
  const Status commit = file->Commit();
  EXPECT_EQ(commit.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(FileMissing(path));
}

// ----------------------------------------------------- FaultInjectingEnv --

TEST(FaultInjectingEnvTest, ShortWriteSequencesReplayPerSeed) {
  const FaultPlan plan = [] {
    FaultPlan p;
    p.seed = FaultSeed();
    p.short_write_prob = 0.5;
    return p;
  }();

  // Same seed, same artifact basename, different directories: the injected
  // failure sequence must be identical (decisions key on the basename and
  // the per-file op index, never on the directory or global interleaving).
  const auto failure_ops = [&plan](const std::string& dir) {
    FaultInjectingEnv env(Env::Default(), plan);
    StatusOr<std::unique_ptr<WritableFile>> file =
        env.NewWritableFile(dir + "/wal.bin");
    EXPECT_TRUE(file.ok()) << file.status();
    std::vector<int> failures;
    for (int i = 0; i < 64; ++i) {
      const Status appended = (*file)->Append("12345678", 8);
      if (!appended.ok()) {
        EXPECT_TRUE(IsInjectedFault(appended)) << appended;
        failures.push_back(i);
      }
    }
    return failures;
  };
  const std::vector<int> first = failure_ops(TempDir("shortw_a"));
  const std::vector<int> second = failure_ops(TempDir("shortw_b"));
  EXPECT_EQ(first, second);
  // p = 0.5 over 64 appends: an empty failure set means the hash is broken.
  EXPECT_FALSE(first.empty());
}

TEST(FaultInjectingEnvTest, EnospcFiresExactlyOnce) {
  const std::string dir = TempDir("enospc");
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.enospc_at_op = 1;
  FaultInjectingEnv env(Env::Default(), plan);
  StatusOr<std::unique_ptr<WritableFile>> file =
      env.NewWritableFile(dir + "/e.bin");
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_TRUE((*file)->Append("a", 1).ok());
  const Status hit = (*file)->Append("b", 1);
  EXPECT_EQ(hit.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsInjectedFault(hit)) << hit;
  EXPECT_TRUE((*file)->Append("c", 1).ok());
  EXPECT_EQ(env.faults_injected(), 1);
}

TEST(FaultInjectingEnvTest, CrashDropsUnsyncedBytesAndFailsEveryLaterOp) {
  const std::string dir = TempDir("crash");
  const std::string path = dir + "/wal.bin";
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.crash_at_op = 2;  // Op 0: append, op 1: sync, op 2: the fatal append.
  FaultInjectingEnv env(Env::Default(), plan);
  StatusOr<std::unique_ptr<WritableFile>> file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append("AAAA", 4).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  const Status fatal = (*file)->Append("BBBB", 4);
  EXPECT_EQ(fatal.code(), StatusCode::kInternal);
  EXPECT_TRUE(IsInjectedFault(fatal)) << fatal;
  EXPECT_TRUE(env.crashed());
  // The page cache "lost" everything past the last fsync.
  EXPECT_EQ(ReadFileBytes(path), "AAAA");
  // The dead process cannot touch the filesystem any more.
  EXPECT_FALSE(env.NewWritableFile(dir + "/other.bin").ok());
  EXPECT_FALSE(env.RenameFile(path, dir + "/moved.bin").ok());
}

// -------------------------------------------------- crash-safe writers --

TEST(DurabilityTest, EventStoreCrashPublishesNothingCleanRunCommits) {
  const std::string dir = TempDir("event_store");
  const std::string path = dir + "/audit.kel2";
  Event event;
  event.id = EventId{1, 1};
  event.type = EventType::kPread;
  event.offset = 0;
  event.size = 8;

  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.crash_at_op = 1;  // Header lands; the first block write crashes.
  FaultInjectingEnv env(Env::Default(), plan);
  Kel2WriterOptions options;
  options.events_per_block = 1;  // Every Append seals (writes) a block.
  options.env = &env;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_FALSE(writer->Append(event).ok());
  EXPECT_FALSE(writer->Close().ok());
  EXPECT_TRUE(FileMissing(path));

  StatusOr<Kel2Writer> clean = Kel2Writer::Create(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->Append(event).ok());
  ASSERT_TRUE(clean->Close().ok());
  const StatusOr<std::vector<Event>> events = ReadLineageStore(path);
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_EQ(events->size(), 1u);
}

TEST(DurabilityTest, Kel2CrashLeavesThePreviousStoreIntact) {
  const std::string dir = TempDir("kel2_crash");
  const std::string path = dir + "/lineage.kel2";
  Event event;
  event.id = EventId{1, 1};
  event.type = EventType::kPread;
  event.offset = 16;
  event.size = 8;

  {
    StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(event).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const std::string committed = ReadFileBytes(path);
  ASSERT_FALSE(committed.empty());

  // An overwrite attempt that crashes mid-write must not disturb the
  // committed store: the new bytes only ever lived in the tmp file.
  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.crash_at_op = 0;
  FaultInjectingEnv env(Env::Default(), plan);
  Kel2WriterOptions options;
  options.env = &env;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  if (writer.ok()) {
    EXPECT_FALSE(writer->Append(event).ok());
    EXPECT_FALSE(writer->Close().ok());
  }
  EXPECT_EQ(ReadFileBytes(path), committed);
}

// ------------------------------------------------------ checksum trailers --

TEST(ChecksumTrailerTest, ManifestDetectsCorruptionAndTruncation) {
  const std::string dir = TempDir("ksm_crc");
  const std::string path = dir + "/manifest.ksm";
  const std::vector<Shape> shapes = {Shape{4, 4}, Shape{8}};
  StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const ShardManifest manifest = MakeShardManifest(*plan, 17);
  ASSERT_TRUE(SaveShardManifest(path, manifest).ok());
  ASSERT_TRUE(LoadShardManifest(path).ok());

  FlipByte(path);
  const StatusOr<ShardManifest> corrupt = LoadShardManifest(path);
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss)
      << corrupt.status();

  ASSERT_TRUE(SaveShardManifest(path, manifest).ok());
  TruncateTail(path, 4);
  const StatusOr<ShardManifest> torn = LoadShardManifest(path);
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss) << torn.status();
}

TEST(ChecksumTrailerTest, ShardStateRoundTripsExtrasAndDetectsDamage) {
  const std::string dir = TempDir("kss_crc");
  const std::string path = dir + "/shard-004.kss";
  const std::vector<Shape> shapes = {Shape{4, 4}};

  ShardCampaignResult result;
  result.per_file.emplace_back(shapes[0]);
  result.per_file[0].InsertLinear(3);
  result.per_file[0].InsertLinear(11);
  result.seeds.push_back(Seed{{0.5, 1.5}, true});
  result.stats.iterations = 5;
  result.stats.evaluations = 4;
  result.stats.useful_evaluations = 2;
  result.stats.retries = 2;
  result.stats.quarantined = 1;
  result.stats.quarantined_points.push_back({2.25, -1.0});
  ShardArtifactInfo info;
  info.lineage_bytes = 123;
  info.lineage_crc = 456;
  ASSERT_TRUE(SaveShardState(path, 4, result, info).ok());

  ShardArtifactInfo loaded_info;
  const StatusOr<ShardCampaignResult> loaded =
      LoadShardState(path, 4, shapes, &loaded_info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->per_file[0].ToSortedLinearIds(),
            result.per_file[0].ToSortedLinearIds());
  EXPECT_EQ(loaded->stats.retries, 2);
  EXPECT_EQ(loaded->stats.quarantined, 1);
  ASSERT_EQ(loaded->stats.quarantined_points.size(), 1u);
  EXPECT_EQ(loaded->stats.quarantined_points[0], result.stats.quarantined_points[0]);
  EXPECT_EQ(loaded_info.lineage_bytes, 123);
  EXPECT_EQ(loaded_info.lineage_crc, 456u);

  FlipByte(path);
  const StatusOr<ShardCampaignResult> corrupt =
      LoadShardState(path, 4, shapes);
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss)
      << corrupt.status();

  ASSERT_TRUE(SaveShardState(path, 4, result, info).ok());
  TruncateTail(path, 3);
  const StatusOr<ShardCampaignResult> torn = LoadShardState(path, 4, shapes);
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss) << torn.status();
}

// --------------------------------------------------- corrupt-shard resume --

TEST(ShardResumeRobustnessTest, CorruptLineageStoreReRunsOnlyThatShard) {
  const StormTrackProgram program(32, 8);
  KondoConfig config;
  config.rng_seed = 31;
  config.fuzz.max_evals = 200;

  ShardOptions reference_options;
  reference_options.shards = 3;
  reference_options.output_dir = TempDir("corrupt_ref");
  const StatusOr<ShardedRunResult> reference =
      RunShardedCampaign(program, config, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->complete);
  const std::string reference_bytes =
      ReadFileBytes(reference->merged_lineage_path);

  ShardOptions options;
  options.shards = 3;
  options.output_dir = TempDir("corrupt_dmg");
  const StatusOr<ShardedRunResult> first =
      RunShardedCampaign(program, config, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->complete);

  // Damage shard 0's sealed lineage store. Kel2Reader alone would silently
  // accept a truncation; the KSS fingerprint catches both damage kinds.
  FlipByte(options.output_dir + "/shard-000.kel2");
  const StatusOr<ShardedRunResult> resumed =
      RunShardedCampaign(program, config, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->shards_fuzzed_now, 1);  // Only the damaged shard re-ran.
  EXPECT_EQ(ReadFileBytes(resumed->merged_lineage_path), reference_bytes);
}

TEST(ShardResumeRobustnessTest, EveryDamagedArtifactKindForcesAReRun) {
  const StormTrackProgram program(32, 8);
  KondoConfig config;
  config.rng_seed = 31;
  config.fuzz.max_evals = 200;

  ShardOptions options;
  options.shards = 3;
  options.output_dir = TempDir("corrupt_all");
  const StatusOr<ShardedRunResult> first =
      RunShardedCampaign(program, config, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->complete);
  const std::string reference_bytes =
      ReadFileBytes(first->merged_lineage_path);

  TruncateTail(options.output_dir + "/shard-000.kel2", 7);  // Torn tail.
  FlipByte(options.output_dir + "/shard-001.kel2");         // Bit rot.
  FlipByte(options.output_dir + "/shard-002.kss");          // Damaged state.
  const StatusOr<ShardedRunResult> resumed =
      RunShardedCampaign(program, config, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->shards_fuzzed_now, 3);
  EXPECT_EQ(ReadFileBytes(resumed->merged_lineage_path), reference_bytes);
}

// ------------------------------------------------------ crash-point sweep --

// The acceptance sweep: a campaign killed at ANY mutating filesystem
// operation resumes from the manifest to a bit-identical merged store.
TEST(CrashSweepTest, ResumeFromEveryCrashPointYieldsIdenticalMergedStore) {
  const StormTrackProgram program(16, 4);
  KondoConfig config;
  config.rng_seed = 17;
  config.jobs = 1;  // Serial drivers give a deterministic global op order.
  config.fuzz.max_evals = 60;

  ShardOptions reference_options;
  reference_options.shards = 2;
  reference_options.output_dir = TempDir("sweep_ref");
  const StatusOr<ShardedRunResult> reference =
      RunShardedCampaign(program, config, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->complete);
  const std::string reference_bytes =
      ReadFileBytes(reference->merged_lineage_path);
  ASSERT_FALSE(reference_bytes.empty());

  // A fault-free injecting env must be transparent — and its op count
  // bounds the sweep.
  FaultPlan count_plan;
  count_plan.seed = FaultSeed();
  FaultInjectingEnv counter(Env::Default(), count_plan);
  ShardOptions counted = reference_options;
  counted.output_dir = TempDir("sweep_count");
  counted.env = &counter;
  const StatusOr<ShardedRunResult> clean =
      RunShardedCampaign(program, config, counted);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->complete);
  EXPECT_EQ(ReadFileBytes(clean->merged_lineage_path), reference_bytes);
  const int64_t num_ops = counter.ops();
  ASSERT_GT(num_ops, 10);

  for (int64_t k = 0; k < num_ops; ++k) {
    FaultPlan plan;
    plan.seed = FaultSeed();
    plan.crash_at_op = k;
    FaultInjectingEnv env(Env::Default(), plan);
    ShardOptions crashed = reference_options;
    crashed.output_dir = TempDir("sweep_" + std::to_string(k));
    crashed.env = &env;
    const StatusOr<ShardedRunResult> broken =
        RunShardedCampaign(program, config, crashed);
    EXPECT_FALSE(broken.ok()) << "crash at op " << k << " did not surface";

    ShardOptions resume = crashed;
    resume.env = nullptr;
    const StatusOr<ShardedRunResult> resumed =
        RunShardedCampaign(program, config, resume);
    ASSERT_TRUE(resumed.ok())
        << "resume after crash at op " << k << ": " << resumed.status();
    ASSERT_TRUE(resumed->complete) << "crash at op " << k;
    EXPECT_EQ(ReadFileBytes(resumed->merged_lineage_path), reference_bytes)
        << "merged store diverged after crash at op " << k;
  }
}

// The campaign's first write is its manifest, and it goes through the
// injected env like every other artefact: a crash there publishes no
// manifest, and a plain rerun starts the campaign afresh.
TEST(CrashSweepTest, CrashWritingTheFirstManifestLeavesNoneAndResumes) {
  const StormTrackProgram program(16, 4);
  KondoConfig config;
  config.rng_seed = 17;
  config.jobs = 1;
  config.fuzz.max_evals = 60;

  ShardOptions reference_options;
  reference_options.shards = 2;
  reference_options.output_dir = TempDir("first_op_ref");
  const StatusOr<ShardedRunResult> reference =
      RunShardedCampaign(program, config, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->complete);

  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.crash_at_op = 0;
  FaultInjectingEnv env(Env::Default(), plan);
  ShardOptions crashed = reference_options;
  crashed.output_dir = TempDir("first_op");
  crashed.env = &env;
  const StatusOr<ShardedRunResult> broken =
      RunShardedCampaign(program, config, crashed);
  EXPECT_FALSE(broken.ok());
  EXPECT_TRUE(env.crashed());
  EXPECT_FALSE(std::filesystem::exists(crashed.output_dir + "/" +
                                       kShardManifestFileName));

  ShardOptions resume = crashed;
  resume.env = nullptr;
  const StatusOr<ShardedRunResult> resumed =
      RunShardedCampaign(program, config, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete);
  EXPECT_EQ(ReadFileBytes(resumed->merged_lineage_path),
            ReadFileBytes(reference->merged_lineage_path));
}

/// A fault-free FaultInjectingEnv that notes its op count right after the
/// first manifest commit that records shard 0 as fuzzed: the index of the
/// first operation after that commit.
class ShardCommitProbeEnv : public FaultInjectingEnv {
 public:
  ShardCommitProbeEnv() : FaultInjectingEnv(Env::Default(), FaultPlan{}) {}

  Status RenameFile(const std::string& from, const std::string& to) override {
    KONDO_RETURN_IF_ERROR(FaultInjectingEnv::RenameFile(from, to));
    if (op_after_commit_ < 0 &&
        std::filesystem::path(to).filename() == kShardManifestFileName) {
      const StatusOr<ShardManifest> manifest = LoadShardManifest(to);
      if (manifest.ok() && manifest->statuses[0] == ShardStatus::kFuzzed) {
        op_after_commit_ = ops();
      }
    }
    return OkStatus();
  }

  int64_t op_after_commit() const { return op_after_commit_; }

 private:
  int64_t op_after_commit_ = -1;
};

// Each shard's status is committed as soon as the shard finishes: a crash
// right after shard 0's manifest commit leaves only shards 1 and 2 to run.
TEST(CrashSweepTest, CrashAfterTheFirstShardCommitReRunsOnlyTheRest) {
  const StormTrackProgram program(16, 4);
  KondoConfig config;
  config.rng_seed = 17;
  config.jobs = 1;  // One slot: shards run, and commit, in order.
  config.fuzz.max_evals = 60;

  ShardOptions reference_options;
  reference_options.shards = 3;
  reference_options.output_dir = TempDir("shard_commit_ref");
  const StatusOr<ShardedRunResult> reference =
      RunShardedCampaign(program, config, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->complete);
  ASSERT_EQ(reference->shards_total, 3);

  ShardCommitProbeEnv probe;
  ShardOptions probed = reference_options;
  probed.output_dir = TempDir("shard_commit_probe");
  probed.env = &probe;
  ASSERT_TRUE(RunShardedCampaign(program, config, probed).ok());
  ASSERT_GE(probe.op_after_commit(), 0);

  FaultPlan plan;
  plan.seed = FaultSeed();
  plan.crash_at_op = probe.op_after_commit();
  FaultInjectingEnv env(Env::Default(), plan);
  ShardOptions crashed = reference_options;
  crashed.output_dir = TempDir("shard_commit");
  crashed.env = &env;
  EXPECT_FALSE(RunShardedCampaign(program, config, crashed).ok());
  EXPECT_TRUE(env.crashed());

  ShardOptions resume = crashed;
  resume.env = nullptr;
  const StatusOr<ShardedRunResult> resumed =
      RunShardedCampaign(program, config, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->shards_fuzzed_now, 2);
  EXPECT_EQ(ReadFileBytes(resumed->merged_lineage_path),
            ReadFileBytes(reference->merged_lineage_path));
}

// ------------------------------------------------------- read-fault sweep --

/// A read-side entry point run through `env`. Two runs agree exactly when
/// their answers are equal strings.
using ReadEntryPoint = std::function<StatusOr<std::string>(Env* env)>;

/// Bytes [begin, end) of the file named `file`: where a bit flip may land.
struct FlipRange {
  std::string file;
  int64_t begin = 0;
  int64_t end = 0;
};

/// Runs `entry` clean, then once per fault: EIO and a short count at every
/// read index of the clean run, and a bit flip at every byte of `flips`.
/// Each faulted run must fail or give the clean run's exact answer, and
/// each kind of fault must fail at least one run (or the sweep would show
/// nothing).
void SweepReadFaults(const std::string& name, const ReadEntryPoint& entry,
                     const std::vector<FlipRange>& flips = {}) {
  FaultInjectingEnv clean_env(Env::Default(), FaultPlan{});
  const StatusOr<std::string> clean = entry(&clean_env);
  ASSERT_TRUE(clean.ok()) << name << ": " << clean.status();
  const int64_t reads = clean_env.reads();
  ASSERT_GT(reads, 0) << name;

  struct ReadFault {
    std::string kind;
    std::string where;
    FaultPlan plan;
  };
  std::vector<ReadFault> faults;
  for (int64_t k = 0; k < reads; ++k) {
    const std::string where = "at read " + std::to_string(k);
    faults.push_back(ReadFault{"EIO", where, FaultPlan{}});
    faults.back().plan.eio_at_read = k;
    faults.push_back(ReadFault{"short read", where, FaultPlan{}});
    faults.back().plan.short_read_at = k;
  }
  for (const FlipRange& range : flips) {
    for (int64_t b = range.begin; b < range.end; ++b) {
      faults.push_back(ReadFault{
          "bit flip", "at byte " + std::to_string(b) + " of " + range.file,
          FaultPlan{}});
      faults.back().plan.flip_file = range.file;
      faults.back().plan.flip_byte = b;
    }
  }
  std::map<std::string, int64_t> failed;
  for (const ReadFault& fault : faults) {
    FaultInjectingEnv env(Env::Default(), fault.plan);
    const StatusOr<std::string> answer = entry(&env);
    if (!answer.ok()) {
      ++failed[fault.kind];
      continue;
    }
    EXPECT_TRUE(*answer == *clean)
        << name << ": " << fault.kind << " " << fault.where
        << " changed the answer without an error";
  }
  EXPECT_GT(failed["EIO"], 0) << name;
  EXPECT_GT(failed["short read"], 0) << name;
  if (!flips.empty()) {
    EXPECT_GT(failed["bit flip"], 0) << name;
  }
}

/// The raw bytes of `values` (an exact, order-preserving answer).
template <typename T>
std::string BytesOf(const std::vector<T>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(T));
}

// KDF carries no checksum, so only EIO and short reads are swept.
TEST(ReadFaultSweepTest, KdfReadAllFailsOrGivesTheCleanAnswer) {
  const std::string path = TempDir("read_fault_kdf") + "/a.kdf";
  DataArray array(Shape{6, 5}, DType::kFloat64);
  array.FillPattern(7);
  ASSERT_TRUE(WriteKdfFile(path, array).ok());
  SweepReadFaults("KDF ReadAll", [&](Env* env) -> StatusOr<std::string> {
    KONDO_ASSIGN_OR_RETURN(const KdfReader reader, KdfReader::Open(path, env));
    KONDO_ASSIGN_OR_RETURN(const DataArray all, reader.ReadAll());
    return BytesOf(all.values());
  });
}

TEST(ReadFaultSweepTest, KdpReplayFailsOrGivesTheCleanAnswer) {
  const std::string path = TempDir("read_fault_kdp") + "/a.kdp";
  const Shape shape{12, 12};
  DataArray data(shape, DType::kFloat64);
  data.FillPattern(3);
  IndexSet::Builder retained(shape);
  shape.ForEachIndex([&](const Index& index) {
    if (index[0] < 7 && (index[0] + index[1]) % 3 == 0) {
      retained.Insert(index);
    }
  });
  PackOptions options;
  options.chunk_dims = {4, 4};  // 9 chunks, 3 of them holes.
  ASSERT_TRUE(WriteKdpFile(path,
                           DebloatedArray::FromDataArray(data,
                                                         retained.Build()),
                           options)
                  .ok());
  const int64_t size = static_cast<int64_t>(ReadFileBytes(path).size());
  SweepReadFaults(
      "KDP replay",
      [&](Env* env) -> StatusOr<std::string> {
        PackReadOptions read_options;
        read_options.env = env;
        KONDO_ASSIGN_OR_RETURN(std::unique_ptr<PackReader> reader,
                               PackReader::Open(path, read_options));
        std::vector<uint8_t> present;
        std::vector<double> values;
        KONDO_RETURN_IF_ERROR(
            reader->ReadRange(0, shape.NumElements(), &present, &values));
        return BytesOf(present) + BytesOf(values);
      },
      {FlipRange{"a.kdp", 0, size}});
}

// Bit flips land in block payloads only: a flipped descriptor zone map can
// make a query skip a matching block with no error, a known gap.
TEST(ReadFaultSweepTest, Kel2QueryFailsOrGivesTheCleanAnswer) {
  const std::string path = TempDir("read_fault_kel2") + "/q.kel2";
  Kel2WriterOptions options;
  options.events_per_block = 8;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int64_t i = 0; i < 48; ++i) {
    Event event;
    event.id = EventId{1 + i % 3, 1};
    event.type = EventType::kPread;
    event.offset = 16 * i;
    event.size = 16;
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  StatusOr<Kel2Reader> layout = Kel2Reader::Open(path);
  ASSERT_TRUE(layout.ok()) << layout.status();
  ASSERT_EQ(layout->NumBlocks(), 6);
  std::vector<FlipRange> payloads;
  for (const Kel2BlockInfo& block : layout->blocks()) {
    payloads.push_back(FlipRange{
        "q.kel2", block.payload_pos,
        block.payload_pos + static_cast<int64_t>(block.payload_bytes)});
  }
  // The range skips blocks 0 and 1 and ends in the last block, so a reader
  // that drops blocks after a failed read gives a short answer.
  SweepReadFaults(
      "KEL2 query",
      [&](Env* env) -> StatusOr<std::string> {
        KONDO_ASSIGN_OR_RETURN(const Kel2Reader reader,
                               Kel2Reader::Open(path, env));
        ProvenanceQuery query(&reader);
        KONDO_ASSIGN_OR_RETURN(const std::vector<Event> events,
                               query.EventsOverlapping(1, 300, 760));
        std::ostringstream answer;
        for (const Event& event : events) {
          answer << event.id.pid << " " << event.offset << " " << event.size
                 << "\n";
        }
        return answer.str();
      },
      payloads);
}

// `carve --state` loads a `kondo fuzz --out` state as shard 0 of a
// one-file campaign. The KSS checksum makes every bit flip an error or a
// no-op, so the sweep flips every byte of the file.
TEST(ReadFaultSweepTest, LoadCampaignStateFailsOrGivesTheCleanAnswer) {
  const std::string path = TempDir("read_fault_kss") + "/c.kss";
  const Shape shape{8, 8};
  ShardCampaignResult state;
  state.seeds = {Seed{{3.0, 4.0}, true}, Seed{{100.0, -2.5}, false}};
  state.per_file.emplace_back(shape);
  state.per_file[0].Insert(Index{2, 2});
  state.per_file[0].Insert(Index{7, 7});
  ASSERT_TRUE(SaveShardState(path, 0, state).ok());
  const int64_t size = static_cast<int64_t>(ReadFileBytes(path).size());
  SweepReadFaults(
      "LoadShardState",
      [&](Env* env) -> StatusOr<std::string> {
        KONDO_ASSIGN_OR_RETURN(const ShardCampaignResult loaded,
                               LoadShardState(path, 0, {shape}, nullptr, env));
        std::ostringstream answer;
        for (const Seed& seed : loaded.seeds) {
          answer << seed.useful << BytesOf(seed.value) << "\n";
        }
        answer << BytesOf(loaded.per_file[0].ToSortedLinearIds());
        return answer.str();
      },
      {FlipRange{"c.kss", 0, size}});
}

// A resume reads the manifest, every shard's state and lineage store (to
// verify them) and the stores again to merge. A shard that fails
// verification is re-run, so the answer is the golden manifest and merged
// store whether or not a fault hit a shard.
TEST(ReadFaultSweepTest, ShardedResumeFailsOrGivesTheGoldenCampaign) {
  const StormTrackProgram program(16, 4);
  KondoConfig config;
  config.rng_seed = 17;
  config.jobs = 1;  // Serial drivers give a deterministic read order.
  config.fuzz.max_evals = 12;  // Short KSS files keep the byte sweep quick.
  ShardOptions options;
  options.shards = 2;
  options.output_dir = TempDir("read_fault_golden");
  const StatusOr<ShardedRunResult> golden =
      RunShardedCampaign(program, config, options);
  ASSERT_TRUE(golden.ok()) << golden.status();
  ASSERT_TRUE(golden->complete);
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.output_dir)) {
    files[entry.path().filename().string()] = ReadFileBytes(entry.path());
  }
  std::vector<FlipRange> flips;
  for (const auto& [name, bytes] : files) {
    const std::string ext = std::filesystem::path(name).extension().string();
    if (ext == ".ksm" || ext == ".kss") {
      flips.push_back(
          FlipRange{name, 0, static_cast<int64_t>(bytes.size())});
    }
  }
  ASSERT_EQ(flips.size(), 3u);

  // Every damaged shard logs a re-run warning; the sweep makes hundreds.
  const LogSeverity severity = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  const std::string dir = TempDir("read_fault_resume");
  SweepReadFaults(
      "sharded resume",
      [&](Env* env) -> StatusOr<std::string> {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        for (const auto& [name, bytes] : files) {
          std::ofstream(dir + "/" + name, std::ios::binary) << bytes;
        }
        ShardOptions resume = options;
        resume.output_dir = dir;
        resume.env = env;
        KONDO_ASSIGN_OR_RETURN(const ShardedRunResult result,
                               RunShardedCampaign(program, config, resume));
        if (!result.complete) {
          return InternalError("resume did not complete");
        }
        return ReadFileBytes(dir + "/" + kShardManifestFileName) +
               ReadFileBytes(result.merged_lineage_path);
      },
      flips);
  SetMinLogSeverity(severity);
}

// -------------------------------------------------- retry and quarantine --

/// Wraps the real debloat test with injected failures keyed on candidate
/// identity (seq), so the failure schedule is a pure function of the
/// campaign — identical at every jobs setting. `fail_attempts` controls how
/// many attempts fail per selected candidate (persistent when >= the retry
/// budget).
CandidateTestFn FlakyTest(const Program& program, uint64_t seed,
                          double fail_prob, int fail_attempts,
                          std::mutex* mu, std::map<int64_t, int>* attempts) {
  const CandidateTestFn base = MakeCandidateTest(program);
  return [base, seed, fail_prob, fail_attempts, mu,
          attempts](const TestCandidate& candidate) {
    if (FaultHash(seed, candidate.seq, 3) < fail_prob) {
      int attempt = 0;
      {
        std::lock_guard<std::mutex> lock(*mu);
        attempt = ++(*attempts)[candidate.seq];
      }
      if (attempt <= fail_attempts) {
        CandidateResult failed;
        failed.status = InternalError("injected transient test failure");
        return failed;
      }
    }
    return base(candidate);
  };
}

TEST(RetryPolicyTest, TransientFailuresRecoverIdenticallyAtEveryJobs) {
  const std::unique_ptr<Program> program = CreateProgram("PRL", 40);
  ASSERT_NE(program, nullptr);
  const uint64_t seed = 19;
  FuzzConfig config;
  config.max_iter = 200;

  FuzzSchedule reference_schedule(program->param_space(),
                                  program->data_shape(), config, seed);
  CampaignExecutor reference_executor(1);
  const FuzzResult reference =
      reference_schedule.Run(reference_executor, MakeCandidateTest(*program));

  // Every selected candidate fails exactly once; attempt 2 succeeds, well
  // inside the 3-attempt budget — so the campaign must be indistinguishable
  // from the failure-free reference, at any jobs setting.
  config.test_max_attempts = 3;
  config.test_backoff_micros = 1;
  std::vector<FuzzResult> results;
  for (int jobs : {1, 8}) {
    std::mutex mu;
    std::map<int64_t, int> attempts;
    FuzzSchedule schedule(program->param_space(), program->data_shape(),
                          config, seed);
    CampaignExecutor executor(jobs);
    results.push_back(schedule.Run(
        executor,
        FlakyTest(*program, FaultSeed(), 0.3, 1, &mu, &attempts)));
    const FuzzResult& result = results.back();
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.stats.quarantined, 0) << "jobs=" << jobs;
    EXPECT_GT(result.stats.retries, 0) << "jobs=" << jobs;
    EXPECT_EQ(result.stats.iterations, reference.stats.iterations);
    EXPECT_EQ(result.stats.evaluations, reference.stats.evaluations);
    EXPECT_EQ(result.stats.useful_evaluations,
              reference.stats.useful_evaluations);
    ASSERT_EQ(result.seeds.size(), reference.seeds.size());
    for (size_t i = 0; i < reference.seeds.size(); ++i) {
      EXPECT_EQ(result.seeds[i].value, reference.seeds[i].value);
    }
    EXPECT_EQ(result.discovered.ToSortedLinearIds(),
              reference.discovered.ToSortedLinearIds());
  }
  EXPECT_EQ(results[0].stats.retries, results[1].stats.retries);
}

TEST(QuarantinePolicyTest, PersistentFailuresQuarantineIdenticallyAtEveryJobs) {
  const std::unique_ptr<Program> program = CreateProgram("PRL", 40);
  ASSERT_NE(program, nullptr);
  const uint64_t seed = 23;
  FuzzConfig config;
  config.max_iter = 200;
  config.test_max_attempts = 2;

  // Selected candidates fail every attempt: they must be quarantined — and
  // the quarantine set, like everything else, must be jobs-invariant.
  std::vector<FuzzResult> results;
  for (int jobs : {1, 8}) {
    std::mutex mu;
    std::map<int64_t, int> attempts;
    FuzzSchedule schedule(program->param_space(), program->data_shape(),
                          config, seed);
    CampaignExecutor executor(jobs);
    results.push_back(schedule.Run(
        executor,
        FlakyTest(*program, FaultSeed(), 0.15, 1 << 20, &mu, &attempts)));
    const FuzzResult& result = results.back();
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_GT(result.stats.quarantined, 0) << "jobs=" << jobs;
    EXPECT_EQ(result.stats.retries, result.stats.quarantined)
        << "each quarantined point consumed exactly one retry";
    EXPECT_EQ(static_cast<int>(result.stats.quarantined_points.size()),
              result.stats.quarantined);
  }
  const FuzzResult& serial = results[0];
  const FuzzResult& parallel = results[1];
  EXPECT_EQ(parallel.stats.iterations, serial.stats.iterations);
  EXPECT_EQ(parallel.stats.evaluations, serial.stats.evaluations);
  EXPECT_EQ(parallel.stats.quarantined, serial.stats.quarantined);
  EXPECT_EQ(parallel.stats.quarantined_points,
            serial.stats.quarantined_points);
  ASSERT_EQ(parallel.seeds.size(), serial.seeds.size());
  for (size_t i = 0; i < serial.seeds.size(); ++i) {
    EXPECT_EQ(parallel.seeds[i].value, serial.seeds[i].value);
  }
  EXPECT_EQ(parallel.discovered.ToSortedLinearIds(),
            serial.discovered.ToSortedLinearIds());
}

// ------------------------------------------------- degraded-mode fetching --

/// A remote source that fails the first `fail_first` fetches of every
/// element (transient flakiness), or every fetch when `fail_first` is
/// huge (a dead server).
class FlakyRemoteSource final : public RemoteSource {
 public:
  FlakyRemoteSource(std::unique_ptr<RemoteSource> base, Shape shape,
                    int fail_first)
      : base_(std::move(base)),
        shape_(std::move(shape)),
        fail_first_(fail_first) {}

  StatusOr<double> Fetch(const Index& index) override {
    ++calls_;
    int& failed = failures_[shape_.Linearize(index)];
    if (failed < fail_first_) {
      ++failed;
      return InternalError("injected remote failure");
    }
    return base_->Fetch(index);
  }

  int64_t bytes_fetched() const override { return base_->bytes_fetched(); }
  int64_t calls() const { return calls_; }

 private:
  std::unique_ptr<RemoteSource> base_;
  Shape shape_;
  int fail_first_;
  int64_t calls_ = 0;
  std::map<int64_t, int> failures_;
};

class FetchPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = CreateProgram("CS", 16);
    ASSERT_NE(program_, nullptr);
    array_ = std::make_unique<DataArray>(program_->data_shape(),
                                         DType::kFloat64);
    array_->FillPattern(11);
    // Unique per test case: ctest runs the cases as separate processes, and
    // TempDir wipes the directory — a shared one would race under -j.
    registry_path_ =
        TempDir(std::string("fetch_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "/registry.kdf";
    ASSERT_TRUE(WriteKdfFile(registry_path_, *array_).ok());
  }

  /// A package retaining only even-x indices: odd-x reads miss.
  std::unique_ptr<PackReader> HalfRetained() {
    IndexSet retained(program_->data_shape());
    program_->data_shape().ForEachIndex([&retained](const Index& index) {
      if (index[0] % 2 == 0) {
        retained.Insert(index);
      }
    });
    return PackForTest(DebloatedArray::FromDataArray(*array_, retained));
  }

  std::unique_ptr<FlakyRemoteSource> FlakyRemote(int fail_first) {
    StatusOr<std::unique_ptr<KdfRemoteSource>> base =
        KdfRemoteSource::Open(registry_path_);
    EXPECT_TRUE(base.ok()) << base.status();
    return std::make_unique<FlakyRemoteSource>(
        *std::move(base), program_->data_shape(), fail_first);
  }

  std::unique_ptr<Program> program_;
  std::unique_ptr<DataArray> array_;
  std::string registry_path_;
};

TEST_F(FetchPolicyTest, RetriesRecoverTransientRemoteFailures) {
  FetchPolicy policy;
  policy.max_attempts = 2;
  DebloatRuntime runtime(HalfRetained(), FlakyRemote(/*fail_first=*/1),
                         policy);
  EXPECT_TRUE(runtime.ReplayRun(*program_, {1.0, 1.0}).ok());
  EXPECT_GT(runtime.stats().remote_fetches, 0);
  EXPECT_GT(runtime.stats().fetch_retries, 0);
  EXPECT_EQ(runtime.stats().fetch_failures, 0);
  EXPECT_EQ(runtime.stats().misses, 0);
  EXPECT_FALSE(runtime.stats().degraded);
}

TEST_F(FetchPolicyTest, ExhaustionSurfacesDataMissingWithoutAborting) {
  FetchPolicy policy;
  policy.max_attempts = 3;
  std::unique_ptr<FlakyRemoteSource> remote = FlakyRemote(1 << 20);
  const FlakyRemoteSource* raw = remote.get();
  DebloatRuntime runtime(HalfRetained(), std::move(remote), policy);

  const StatusOr<double> value = runtime.Read(Index{3, 5});  // Odd x: Null.
  EXPECT_EQ(value.status().code(), StatusCode::kDataMissing)
      << value.status();
  EXPECT_NE(value.status().message().find("3 attempts"), std::string::npos)
      << value.status();
  EXPECT_EQ(raw->calls(), 3);
  EXPECT_EQ(runtime.stats().fetch_retries, 2);
  EXPECT_EQ(runtime.stats().fetch_failures, 1);
  EXPECT_EQ(runtime.stats().misses, 1);

  // A whole-run replay degrades to per-element data-missing errors, never
  // an abort; the first error is surfaced, and the stats carry the toll.
  // (Between them the two runs touch at least one odd-x element — the same
  // pair extensions_test uses to prove the working remote fetches.)
  Status replay = runtime.ReplayRun(*program_, {1.0, 1.0});
  if (replay.ok()) {
    replay = runtime.ReplayRun(*program_, {3.0, 7.0});
  }
  EXPECT_EQ(replay.code(), StatusCode::kDataMissing) << replay;
  EXPECT_GT(runtime.stats().fetch_failures, 1);
}

TEST_F(FetchPolicyTest, ConsecutiveFailuresTripDegradedMode) {
  FetchPolicy policy;
  policy.max_attempts = 2;
  policy.degrade_after = 2;
  std::unique_ptr<FlakyRemoteSource> remote = FlakyRemote(1 << 20);
  const FlakyRemoteSource* raw = remote.get();
  DebloatRuntime runtime(HalfRetained(), std::move(remote), policy);

  EXPECT_FALSE(runtime.Read(Index{1, 0}).ok());
  EXPECT_FALSE(runtime.stats().degraded);
  EXPECT_FALSE(runtime.Read(Index{1, 1}).ok());
  EXPECT_TRUE(runtime.stats().degraded);

  // Degraded: misses surface immediately, no further remote round-trips.
  const int64_t calls_at_degrade = raw->calls();
  const StatusOr<double> after = runtime.Read(Index{1, 2});
  EXPECT_EQ(after.status().code(), StatusCode::kDataMissing)
      << after.status();
  EXPECT_NE(after.status().message().find("degraded"), std::string::npos)
      << after.status();
  EXPECT_EQ(raw->calls(), calls_at_degrade);
  // Local hits keep working in degraded mode.
  EXPECT_TRUE(runtime.Read(Index{2, 3}).ok());
}

}  // namespace
}  // namespace kondo
