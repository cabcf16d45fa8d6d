// Tests for the sharded campaign scheduler (src/shard/): planner partition
// invariants, manifest/state round-trips, bit-identity of the merged result
// against the unsharded pipeline at every (shards, jobs) setting, byte
// identity of the merged lineage store across shard counts, resume via
// the campaign manifest, and the shard dispatch loop over fake runners.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "core/multi_kondo.h"
#include "fuzz/fuzz_schedule.h"
#include "common/strings.h"
#include "provenance/crc32.h"
#include "shard/merge_stage.h"
#include "shard/plan_weights.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"
#include "shard/shard_plan.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

/// Jobs settings the equality tests sweep. CI adds an extra leg through
/// KONDO_TEST_JOBS so the jobs=1 and jobs=4 matrix entries both exercise
/// the invariance claims.
std::vector<int> TestJobs() {
  std::vector<int> jobs = {1, 4};
  if (const char* env = std::getenv("KONDO_TEST_JOBS")) {
    const int extra = std::atoi(env);
    if (extra > 0 &&
        std::find(jobs.begin(), jobs.end(), extra) == jobs.end()) {
      jobs.push_back(extra);
    }
  }
  return jobs;
}

void ExpectIndexSetsEqual(const IndexSet& a, const IndexSet& b,
                          const std::string& what) {
  EXPECT_EQ(a.ToSortedLinearIds(), b.ToSortedLinearIds()) << what;
}

void ExpectStatsEqual(const FuzzStats& a, const FuzzStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  EXPECT_EQ(a.useful_evaluations, b.useful_evaluations) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.final_epsilon, b.final_epsilon) << what;
  EXPECT_EQ(a.stopped_by_stagnation, b.stopped_by_stagnation) << what;
  EXPECT_EQ(a.stopped_by_budget, b.stopped_by_budget) << what;
  EXPECT_EQ(a.stopped_by_eval_budget, b.stopped_by_eval_budget) << what;
}

void ExpectResultsEqual(const MergedCampaign& a, const MergedCampaign& b,
                        const std::string& what) {
  ExpectStatsEqual(a.fuzz_stats, b.fuzz_stats, what);
  ASSERT_EQ(a.per_file_discovered.size(), b.per_file_discovered.size());
  for (size_t f = 0; f < a.per_file_discovered.size(); ++f) {
    const std::string file_what = what + ", file " + std::to_string(f);
    ExpectIndexSetsEqual(a.per_file_discovered[f], b.per_file_discovered[f],
                         file_what + " discovered");
    ExpectIndexSetsEqual(a.per_file_approx[f], b.per_file_approx[f],
                         file_what + " approx");
    EXPECT_EQ(a.per_file_carve_stats[f].num_cells,
              b.per_file_carve_stats[f].num_cells) << file_what;
    EXPECT_EQ(a.per_file_carve_stats[f].merge_operations,
              b.per_file_carve_stats[f].merge_operations) << file_what;
    EXPECT_EQ(a.per_file_carve_stats[f].final_hulls,
              b.per_file_carve_stats[f].final_hulls) << file_what;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A per-test campaign directory, wiped up front: campaign directories are
/// resumable by design, so a leftover from a previous test-binary run
/// would otherwise satisfy (or corrupt) this run's campaign.
std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/shard_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A short campaign config: the eval budget bounds runtime and (being
// checked at serial consumption time) keeps every sweep bit-comparable.
KondoConfig ShortCampaignConfig(uint64_t seed) {
  KondoConfig config;
  config.rng_seed = seed;
  config.fuzz.max_evals = 400;
  return config;
}

// ------------------------------------------------------------- planner --

TEST(ShardPlanTest, OneShardPerFileIsTheDefaultPartition) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4},
                                     Shape{16}, Shape{2, 2}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 4);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards(), 4);
  for (int s = 0; s < 4; ++s) {
    const Shard& shard = plan->shards[static_cast<size_t>(s)];
    ASSERT_EQ(shard.slices.size(), 1u);
    EXPECT_EQ(shard.slices[0],
              (ShardSlice{s, 0, shapes[static_cast<size_t>(s)].NumElements()}));
  }
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
}

TEST(ShardPlanTest, FewerShardsGroupWholeFiles) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4},
                                     Shape{16}, Shape{2, 2}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards(), 2);
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
  // Every slice spans its whole file (grouping never splits a file).
  for (const Shard& shard : plan->shards) {
    for (const ShardSlice& slice : shard.slices) {
      EXPECT_EQ(slice.begin, 0);
      EXPECT_EQ(slice.end,
                shapes[static_cast<size_t>(slice.file)].NumElements());
    }
  }
}

TEST(ShardPlanTest, ExtraShardsSplitTheLargestFile) {
  const std::vector<Shape> shapes = {Shape{64, 64}, Shape{8}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 4);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards(), 4);
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
  // The 4096-element file takes the three extra splits; the 8-element file
  // stays whole.
  int file0_slices = 0;
  for (const Shard& shard : plan->shards) {
    for (const ShardSlice& slice : shard.slices) {
      if (slice.file == 0) {
        ++file0_slices;
      } else {
        EXPECT_EQ(slice.NumElements(), 8);
      }
    }
  }
  EXPECT_EQ(file0_slices, 3);
}

TEST(ShardPlanTest, TinyFilesYieldFewerShardsThanRequested) {
  const StatusOr<ShardPlan> plan = PlanShards({Shape{3}}, 10);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->num_shards(), 3);  // Never more slices than elements.
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
}

TEST(ShardPlanTest, DeterministicAndValidatedAcrossCounts) {
  const std::vector<Shape> shapes = {Shape{32, 32}, Shape{16, 16, 8},
                                     Shape{64}};
  for (int shards : {1, 2, 3, 5, 9}) {
    const StatusOr<ShardPlan> a = PlanShards(shapes, shards);
    const StatusOr<ShardPlan> b = PlanShards(shapes, shards);
    ASSERT_TRUE(a.ok()) << a.status();
    EXPECT_TRUE(ValidateShardPlan(*a).ok()) << shards << " shards";
    ASSERT_EQ(a->num_shards(), b->num_shards());
    for (int s = 0; s < a->num_shards(); ++s) {
      EXPECT_EQ(a->shards[static_cast<size_t>(s)].slices,
                b->shards[static_cast<size_t>(s)].slices);
    }
  }
}

TEST(ShardPlanTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(PlanShards({Shape{4, 4}}, 0).ok());
  EXPECT_FALSE(PlanShards({}, 2).ok());
}

// ------------------------------------------------- manifest and state --

TEST(ShardPlanTest, UniformWeightsReproduceTheUnweightedPlan) {
  const std::vector<Shape> shapes = {Shape{64, 64}, Shape{8, 8}};
  const StatusOr<ShardPlan> unweighted = PlanShards(shapes, 5);
  ASSERT_TRUE(unweighted.ok()) << unweighted.status();

  PlanWeights weights;
  weights.per_file.push_back(std::vector<double>(64 * 64, 2.5));
  weights.per_file.push_back(std::vector<double>(8 * 8, 2.5));
  const StatusOr<ShardPlan> weighted = PlanShards(shapes, 5, weights);
  ASSERT_TRUE(weighted.ok()) << weighted.status();
  ASSERT_EQ(weighted->num_shards(), unweighted->num_shards());
  for (int s = 0; s < unweighted->num_shards(); ++s) {
    EXPECT_EQ(weighted->shards[s].slices, unweighted->shards[s].slices)
        << "shard " << s;
  }
}

TEST(ShardPlanTest, SkewedWeightsShrinkTheHotRegionsShards) {
  // The first eighth of the file concentrates the observed accesses; the
  // weighted split must give the hot prefix proportionally fewer elements
  // per shard than the uniform element-count split would.
  const std::vector<Shape> shapes = {Shape{1024}};
  PlanWeights weights;
  std::vector<double> w(1024, kColdElementWeight);
  for (int i = 0; i < 128; ++i) {
    w[static_cast<size_t>(i)] = kHotElementWeight;
  }
  weights.per_file.push_back(std::move(w));

  const StatusOr<ShardPlan> plan = PlanShards(shapes, 4, weights);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(ValidateShardPlan(*plan).ok());
  ASSERT_EQ(plan->num_shards(), 4);
  // Shard 0 owns the hot prefix: far fewer elements than the 256 an
  // unweighted split would give it.
  EXPECT_LT(plan->shards[0].NumElements(), 256);
  // Every element is still covered exactly once (ValidateShardPlan), and
  // the shard count is unchanged — only boundaries moved.
  int64_t total = 0;
  for (const Shard& shard : plan->shards) {
    total += shard.NumElements();
  }
  EXPECT_EQ(total, 1024);
}

TEST(ShardPlanTest, MalformedWeightsAreRejected) {
  const std::vector<Shape> shapes = {Shape{16}};
  // Non-uniform but covering only half the file (exactly uniform weights
  // would legitimately defer to the unweighted planner before validation).
  PlanWeights short_weights;
  short_weights.per_file.push_back(std::vector<double>(8, 1.0));
  short_weights.per_file[0][0] = 2.0;
  EXPECT_FALSE(PlanShards(shapes, 2, short_weights).ok());

  PlanWeights negative;
  negative.per_file.push_back(std::vector<double>(16, 1.0));
  negative.per_file[0][3] = -1.0;
  EXPECT_FALSE(PlanShards(shapes, 2, negative).ok());
}

TEST(PlanWeightsTest, WeightsFromIndexSetsMarkAccessedElementsHot) {
  std::vector<IndexSet> per_file;
  per_file.emplace_back(Shape{4, 4});
  per_file[0].InsertLinear(0);
  per_file[0].InsertLinear(5);
  const PlanWeights weights = WeightsFromIndexSets(per_file);
  ASSERT_EQ(weights.per_file.size(), 1u);
  EXPECT_EQ(weights.per_file[0][0], kHotElementWeight);
  EXPECT_EQ(weights.per_file[0][5], kHotElementWeight);
  EXPECT_EQ(weights.per_file[0][1], kColdElementWeight);
  EXPECT_FALSE(weights.IsUniform());
}

TEST(ShardManifestTest, DispatchCountsRoundTripThroughWLines) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 3);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ShardManifest manifest = MakeShardManifest(*plan, 42);
  manifest.dispatch_counts[0] = 2;
  manifest.dispatch_counts[2] = 5;

  const std::string dir = TempDir("manifest_w");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + kShardManifestFileName;
  ASSERT_TRUE(SaveShardManifest(path, manifest).ok());
  const StatusOr<ShardManifest> loaded = LoadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dispatch_counts,
            (std::vector<int>{2, 0, 5}));
  // The fleet's re-dispatch accounting never perturbs plan matching.
  EXPECT_TRUE(CheckManifestMatchesPlan(*loaded, *plan, 42).ok());
}

TEST(ShardManifestTest, RejectsFileLinesOutsideTheShapeBounds) {
  const std::string dir = TempDir("manifest_bad_shape");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + kShardManifestFileName;
  const char* file_lines[] = {
      "F 5 1 1 1 1 1",                         // Rank above kMaxRank.
      "F 0",                                   // Rank zero.
      "F 2 4",                                 // Fewer dims than the rank.
      "F 2 4 -1",                              // Non-positive dim.
      "F 3 2147483648 2147483648 2147483648",  // 2^93 elements.
  };
  for (const char* file_line : file_lines) {
    SCOPED_TRACE(file_line);
    // A well-formed manifest around the bad line, checksum included, so
    // the shape check is what must refuse it.
    std::string body = StrCat("KSM1 1 7 1 0\n", file_line, "\nH 0 0\nW 0 0\n");
    AppendChecksumTrailer(&body);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << body;
    EXPECT_EQ(LoadShardManifest(path).status().code(), StatusCode::kDataLoss);
  }
}

TEST(ShardManifestTest, RoundTripsThroughDisk) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 3);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ShardManifest manifest = MakeShardManifest(*plan, 42);
  manifest.statuses[1] = ShardStatus::kFuzzed;

  const std::string dir = TempDir("manifest");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + kShardManifestFileName;
  ASSERT_TRUE(SaveShardManifest(path, manifest).ok());

  const StatusOr<ShardManifest> loaded = LoadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rng_seed, 42u);
  EXPECT_FALSE(loaded->merged);
  EXPECT_EQ(loaded->statuses[0], ShardStatus::kPending);
  EXPECT_EQ(loaded->statuses[1], ShardStatus::kFuzzed);
  EXPECT_TRUE(CheckManifestMatchesPlan(*loaded, *plan, 42).ok());
  // A different campaign seed must be rejected — it is a different
  // schedule, and merging its shards would corrupt the campaign.
  EXPECT_FALSE(CheckManifestMatchesPlan(*loaded, *plan, 43).ok());
}

TEST(ShardStateTest, RoundTripsThroughDisk) {
  const std::vector<Shape> shapes = {Shape{4, 4}, Shape{8}};
  ShardCampaignResult result;
  result.per_file.emplace_back(shapes[0]);
  result.per_file.emplace_back(shapes[1]);
  result.per_file[0].InsertLinear(3);
  result.per_file[0].InsertLinear(7);
  result.per_file[1].InsertLinear(0);
  result.seeds.push_back({{1.5, -2.25}, true});
  result.seeds.push_back({{0.125, 9.0}, false});
  result.stats.iterations = 11;
  result.stats.evaluations = 9;
  result.stats.useful_evaluations = 4;
  result.stats.final_epsilon = 0.375;
  result.stats.stopped_by_eval_budget = true;

  const std::string dir = TempDir("state");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + ShardStateFileName(7);
  ASSERT_TRUE(SaveShardState(path, 7, result).ok());

  const StatusOr<ShardCampaignResult> loaded = LoadShardState(path, 7, shapes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStatsEqual(loaded->stats, result.stats, "state round trip");
  ASSERT_EQ(loaded->seeds.size(), 2u);
  EXPECT_EQ(loaded->seeds[0].value, result.seeds[0].value);
  EXPECT_EQ(loaded->seeds[0].useful, true);
  EXPECT_EQ(loaded->seeds[1].value, result.seeds[1].value);
  ExpectIndexSetsEqual(loaded->per_file[0], result.per_file[0], "file 0");
  ExpectIndexSetsEqual(loaded->per_file[1], result.per_file[1], "file 1");
  // Loading under the wrong shard id is the resume-corruption guard.
  EXPECT_FALSE(LoadShardState(path, 6, shapes).ok());
}

/// The state `kondo fuzz --out` writes: shard 0 of a one-file campaign.
ShardCampaignResult SmallCampaign() {
  ShardCampaignResult state;
  state.per_file.emplace_back(Shape{16, 16});
  state.per_file[0].Insert(Index{1, 2});
  state.per_file[0].Insert(Index{15, 15});
  state.seeds.push_back(Seed{{3.0, 4.0}, true});
  state.seeds.push_back(Seed{{100.0, -2.5}, false});
  return state;
}

/// A fresh directory for one state-file test, and the state's path in it.
std::string StatePath(const std::string& name) {
  const std::string dir = TempDir(name);
  std::filesystem::create_directories(dir);
  return dir + "/c.kss";
}

/// Writes `body` plus its checksum trailer to `path`, so only the line
/// under test can make a load fail.
void WriteCheckedState(const std::string& path, std::string body) {
  AppendChecksumTrailer(&body);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << body;
}

// The campaign state of `kondo fuzz --out` / `--resume` / `carve --state`
// (shard 0 of a one-file campaign) round-trips seeds and discovery.
TEST(CampaignStateTest, RoundTrip) {
  const ShardCampaignResult state = SmallCampaign();
  const std::string path = StatePath("state_round_trip");
  ASSERT_TRUE(SaveShardState(path, 0, state).ok());
  const StatusOr<ShardCampaignResult> loaded =
      LoadShardState(path, 0, {Shape{16, 16}});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->seeds.size(), 2u);
  EXPECT_TRUE(loaded->seeds[0].useful);
  EXPECT_EQ(loaded->seeds[0].value, state.seeds[0].value);
  EXPECT_FALSE(loaded->seeds[1].useful);
  EXPECT_EQ(loaded->seeds[1].value, state.seeds[1].value);
  ASSERT_EQ(loaded->per_file.size(), 1u);
  EXPECT_EQ(loaded->per_file[0].shape(), (Shape{16, 16}));
  EXPECT_EQ(loaded->per_file[0].size(), 2u);
  EXPECT_TRUE(loaded->per_file[0].Contains(Index{1, 2}));
  ExpectIndexSetsEqual(loaded->per_file[0], state.per_file[0], "file 0");
}

TEST(CampaignStateTest, DoublePrecisionPreserved) {
  ShardCampaignResult state = SmallCampaign();
  state.seeds[0].value = {0.1234567890123456789, 1e-300};
  const std::string path = StatePath("state_precise");
  ASSERT_TRUE(SaveShardState(path, 0, state).ok());
  const StatusOr<ShardCampaignResult> loaded =
      LoadShardState(path, 0, {Shape{16, 16}});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->seeds.size(), 2u);
  // Bit-exact, not merely close: a resumed campaign re-seeds from these.
  EXPECT_EQ(loaded->seeds[0].value, state.seeds[0].value);
  EXPECT_EQ(loaded->seeds[0].value[1], 1e-300);
}

TEST(ShardStateTest, ShuffledIdLinesLoadToTheSameState) {
  const Shape shape{64, 64};
  ShardCampaignResult state = SmallCampaign();
  state.per_file = {IndexSet(shape)};
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    state.per_file[0].InsertLinear(rng.UniformInt(0, 64 * 64 - 1));
  }
  // Keep the other lines (the trailer is re-made below); shuffle the `I`
  // lines and repeat some.
  std::istringstream encoded(EncodeShardState(0, state));
  std::string head;
  std::vector<std::string> ids;
  for (std::string line; std::getline(encoded, line);) {
    if (line.rfind("I ", 0) == 0) {
      ids.push_back(line);
    } else if (line.rfind("C ", 0) != 0) {
      head += line + "\n";
    }
  }
  ASSERT_EQ(ids.size(), state.per_file[0].size());
  ids.insert(ids.end(), ids.begin(), ids.begin() + 500);
  rng.Shuffle(ids);
  for (const std::string& line : ids) {
    head += line + "\n";
  }
  const std::string path = StatePath("state_shuffled");
  WriteCheckedState(path, head);

  const StatusOr<ShardCampaignResult> loaded = LoadShardState(path, 0, {shape});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->seeds.size(), state.seeds.size());
  ExpectIndexSetsEqual(loaded->per_file[0], state.per_file[0], "shuffled");
}

TEST(ShardStateTest, RejectsGarbage) {
  const std::string path = StatePath("state_garbage");
  std::ofstream(path, std::ios::binary) << "not a campaign\n";
  EXPECT_EQ(LoadShardState(path, 0, {Shape{4, 4}}).status().code(),
            StatusCode::kDataLoss);
  // Past the checksum, the header is what must refuse it.
  WriteCheckedState(path, "not a campaign\n");
  EXPECT_EQ(LoadShardState(path, 0, {Shape{4, 4}}).status().code(),
            StatusCode::kDataLoss);
}

TEST(ShardStateTest, RejectsOutOfRangeIds) {
  const std::string path = StatePath("state_bad_id");
  WriteCheckedState(path, "KSS2 0 1\nF 2 4 4\nI 0 99\n");
  EXPECT_EQ(LoadShardState(path, 0, {Shape{4, 4}}).status().code(),
            StatusCode::kDataLoss);
  WriteCheckedState(path, "KSS2 0 1\nF 2 4 4\nI 1 0\n");  // No file 1.
  EXPECT_EQ(LoadShardState(path, 0, {Shape{4, 4}}).status().code(),
            StatusCode::kDataLoss);
}

TEST(ShardStateTest, RejectsFileLinesOutsideTheShapeBounds) {
  const char* file_lines[] = {
      "F 5 1 1 1 1 1",                         // Rank above kMaxRank.
      "F 0",                                   // Rank zero.
      "F 2000000000 1",                        // Rank with no dims.
      "F 2 4 0",                               // Non-positive dim.
      "F 3 2147483648 2147483648 2147483648",  // 2^93 elements.
  };
  const std::string path = StatePath("state_bad_shape");
  for (const char* file_line : file_lines) {
    SCOPED_TRACE(file_line);
    WriteCheckedState(path, StrCat("KSS2 0 1\n", file_line, "\n"));
    EXPECT_EQ(LoadShardState(path, 0, {Shape{4, 4}}).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(ShardStateTest, StateOfAnotherShapeDoesNotMatch) {
  const std::string path = StatePath("state_other_shape");
  ASSERT_TRUE(SaveShardState(path, 0, SmallCampaign()).ok());
  for (const std::vector<Shape>& shapes :
       {std::vector<Shape>{Shape{8, 32}},
        std::vector<Shape>{Shape{16, 16}, Shape{4}}}) {
    const Status status = LoadShardState(path, 0, shapes).status();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.ToString().find("does not match"), std::string::npos)
        << status;
  }
}

TEST(ShardStateTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadShardState(TempDir("state_absent") + "/c.kss", 0,
                           {Shape{4, 4}})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ShardStateTest, RefusesKcsFilesNamingTheFormat) {
  const std::string path = StatePath("state_kcs");
  std::ofstream(path, std::ios::binary) << "KCS1 2 16 16\nS 1 3 4\nI 18\n";
  const Status status = LoadShardState(path, 0, {Shape{16, 16}}).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("KCS"), std::string::npos) << status;
  EXPECT_NE(status.ToString().find("kondo fuzz --out"), std::string::npos)
      << status;
}

TEST(ShardStateTest, ExtendCampaignUnionsDiscoveryAndConcatenatesSeeds) {
  ShardCampaignResult base = SmallCampaign();
  base.stats.evaluations = 5;
  base.stats.quarantined_points = {{1.0, 1.0}};
  ShardCampaignResult latest;
  latest.per_file.emplace_back(Shape{16, 16});
  latest.per_file[0].Insert(Index{1, 2});  // Duplicate.
  latest.per_file[0].Insert(Index{0, 0});  // New.
  latest.seeds.push_back(Seed{{7.0, 7.0}, true});
  latest.stats.evaluations = 1;
  latest.stats.quarantined_points = {{2.0, 2.0}};
  ExtendCampaign(&base, std::move(latest));
  ASSERT_EQ(base.seeds.size(), 3u);
  EXPECT_EQ(base.seeds[2].value, (ParamValue{7.0, 7.0}));
  EXPECT_EQ(base.per_file[0].size(), 3u);
  // The stats are the latest run's; quarantined points concatenate.
  EXPECT_EQ(base.stats.evaluations, 1);
  EXPECT_EQ(base.stats.quarantined_points,
            (std::vector<ParamValue>{{1.0, 1.0}, {2.0, 2.0}}));
}

TEST(ShardStateTest, ResumedCampaignExtendsDiscovery) {
  // A short campaign persisted, then a second campaign folded in: the
  // combined state discovers at least as much as either alone.
  const std::unique_ptr<Program> program = CreateProgram("CS", 64);
  const Shape shape = program->data_shape();
  FuzzConfig short_config;
  short_config.max_iter = 150;
  const auto run = [&](uint64_t seed) {
    CampaignExecutor executor(1);
    FuzzResult fuzz =
        FuzzSchedule(program->param_space(), shape, short_config, seed)
            .Run(executor, MakeCandidateTest(*program));
    ShardCampaignResult state;
    state.per_file.push_back(std::move(fuzz.discovered));
    state.seeds = std::move(fuzz.seeds);
    state.stats = std::move(fuzz.stats);
    return state;
  };
  const ShardCampaignResult first = run(1);
  const std::string path = StatePath("state_resume");
  ASSERT_TRUE(SaveShardState(path, 0, first).ok());
  StatusOr<ShardCampaignResult> reloaded = LoadShardState(path, 0, {shape});
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  ExtendCampaign(&*reloaded, run(2));
  EXPECT_GE(reloaded->per_file[0].size(), first.per_file[0].size());
  EXPECT_GT(reloaded->seeds.size(), first.seeds.size());
}

TEST(ShardStateTest, FileBytesArePinned) {
  const std::string path = StatePath("state_pinned");
  ASSERT_TRUE(SaveShardState(path, 0, SmallCampaign()).ok());
  EXPECT_EQ(ReadFileBytes(path),
            "KSS2 0 1\nF 2 16 16\nT 0 0 0 0 1 0 0 0 0 0 0\nS 1 3 4\n"
            "S 0 100 -2.5\nI 0 18\nI 0 255\nC 2486959105\n");
}

// `kondo fuzz --out S --resume S` overwrites the state it resumed from: a
// crash at any point of the save must leave the old state or the new one.
TEST(ShardStateTest, InterruptedSaveKeepsTheOldOrNewState) {
  const ShardCampaignResult before = SmallCampaign();
  ShardCampaignResult after = SmallCampaign();
  after.seeds.push_back(Seed{{7.0, 0.125}, true});
  after.per_file[0].Insert(Index{4, 4});
  const std::vector<Shape> shapes = {Shape{16, 16}};

  const std::string scratch = StatePath("state_crash");
  const std::string dir = std::filesystem::path(scratch).parent_path();
  ASSERT_TRUE(SaveShardState(scratch, 0, after).ok());
  const std::string new_bytes = ReadFileBytes(scratch);
  ASSERT_TRUE(SaveShardState(scratch, 0, before).ok());
  const std::string old_bytes = ReadFileBytes(scratch);
  FaultInjectingEnv counter(Env::Default(), FaultPlan{});
  ASSERT_TRUE(SaveShardState(scratch, 0, after, {}, &counter).ok());
  EXPECT_EQ(ReadFileBytes(scratch), new_bytes);
  const int64_t num_ops = counter.ops();
  ASSERT_GT(num_ops, 2);

  for (int64_t k = 0; k < num_ops; ++k) {
    const std::string path = dir + "/crash_" + std::to_string(k) + ".kss";
    ASSERT_TRUE(SaveShardState(path, 0, before).ok());
    FaultPlan plan;
    plan.crash_at_op = k;
    FaultInjectingEnv env(Env::Default(), plan);
    EXPECT_FALSE(SaveShardState(path, 0, after, {}, &env).ok())
        << "crash at op " << k << " did not surface";
    const std::string left = ReadFileBytes(path);
    EXPECT_TRUE(left == old_bytes || left == new_bytes)
        << "torn campaign state after crash at op " << k;
    const StatusOr<ShardCampaignResult> loaded =
        LoadShardState(path, 0, shapes);
    ASSERT_TRUE(loaded.ok()) << "crash at op " << k << ": "
                             << loaded.status();
    const size_t seeds = loaded->seeds.size();
    EXPECT_TRUE(seeds == before.seeds.size() || seeds == after.seeds.size())
        << "crash at op " << k;
  }
}

// ----------------------------------------------- merged-result identity --

TEST(ShardSchedulerTest, MergedResultIsBitIdenticalToUnsharded) {
  for (const std::string& name : AllMultiFileProgramNames()) {
    const std::unique_ptr<MultiFileProgram> program =
        CreateMultiFileProgram(name, 32);
    ASSERT_NE(program, nullptr);
    KondoConfig config = ShortCampaignConfig(19);
    const MergedCampaign baseline = RunMultiFileKondo(*program, config);
    EXPECT_TRUE(baseline.fuzz_stats.stopped_by_eval_budget);

    for (int shards : {2, 4}) {
      for (int jobs : TestJobs()) {
        config.shards = shards;
        config.jobs = jobs;
        const MergedCampaign sharded = RunMultiFileKondo(*program, config);
        ExpectResultsEqual(baseline, sharded,
                           name + ", shards=" + std::to_string(shards) +
                               ", jobs=" + std::to_string(jobs));
      }
    }
  }
}

TEST(ShardSchedulerTest, SingleFileChunkSplitMatchesWholeFile) {
  // The chunk-range splitter partitions one file across shards; results
  // must still match the one-shard run exactly.
  KondoConfig config = ShortCampaignConfig(5);
  const SingleFileProgramAdapter adapter(CreateProgram("CS"));
  const MergedCampaign baseline = RunMultiFileKondo(adapter, config);
  config.shards = 3;
  config.jobs = 2;
  const MergedCampaign sharded = RunMultiFileKondo(adapter, config);
  ExpectResultsEqual(baseline, sharded, "CS chunk split");

  // The single-file pipeline shares no code with the shard engine: it is
  // the independent reference for what the one-file campaign must find.
  const KondoResult pipeline = KondoPipeline(config).Run(*CreateProgram("CS"));
  ASSERT_GT(pipeline.fuzz.discovered.size(), 0u);
  ExpectIndexSetsEqual(sharded.per_file_discovered[0],
                       pipeline.fuzz.discovered, "CS discovered vs pipeline");
  ExpectIndexSetsEqual(sharded.per_file_approx[0], pipeline.approx,
                       "CS approx vs pipeline");
}

TEST(ShardSchedulerTest, MergedLineageBytesInvariantAcrossShardCounts) {
  const StormTrackProgram program(32, 8);
  const KondoConfig config = ShortCampaignConfig(23);
  std::string reference;
  for (int shards : {1, 2, 4}) {
    ShardOptions options;
    options.shards = shards;
    options.output_dir = TempDir("lineage_" + std::to_string(shards));
    const StatusOr<ShardedRunResult> run =
        RunShardedCampaign(program, config, options);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->complete);
    const std::string bytes = ReadFileBytes(run->merged_lineage_path);
    ASSERT_FALSE(bytes.empty());
    if (shards == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "merged.kel2 differs at shards=" << shards;
    }
  }
}

TEST(ShardSchedulerTest, ResumesFromManifestOneShardAtATime) {
  const StormTrackProgram program(32, 8);
  const KondoConfig config = ShortCampaignConfig(31);

  ShardOptions oneshot;
  oneshot.shards = 3;
  oneshot.output_dir = TempDir("resume_oneshot");
  const StatusOr<ShardedRunResult> full =
      RunShardedCampaign(program, config, oneshot);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->complete);

  ShardOptions paced;
  paced.shards = 3;
  paced.output_dir = TempDir("resume_paced");
  paced.max_shards_this_run = 1;
  for (int invocation = 0; invocation < 2; ++invocation) {
    const StatusOr<ShardedRunResult> partial =
        RunShardedCampaign(program, config, paced);
    ASSERT_TRUE(partial.ok()) << partial.status();
    EXPECT_FALSE(partial->complete);
    EXPECT_EQ(partial->shards_fuzzed_now, 1);
    // The manifest records progress between invocations.
    const StatusOr<ShardManifest> manifest = LoadShardManifest(
        paced.output_dir + "/" + kShardManifestFileName);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    EXPECT_FALSE(manifest->AllFuzzed());
  }
  const StatusOr<ShardedRunResult> last =
      RunShardedCampaign(program, config, paced);
  ASSERT_TRUE(last.ok()) << last.status();
  ASSERT_TRUE(last->complete);

  // The paced campaign merged shards 0-1 from their .kss state files, yet
  // the outcome — including the merged lineage bytes — matches one shot.
  ExpectStatsEqual(last->merged.fuzz_stats, full->merged.fuzz_stats,
                   "paced vs oneshot");
  for (size_t f = 0; f < full->merged.per_file_approx.size(); ++f) {
    ExpectIndexSetsEqual(last->merged.per_file_approx[f],
                         full->merged.per_file_approx[f],
                         "paced approx, file " + std::to_string(f));
  }
  EXPECT_EQ(ReadFileBytes(last->merged_lineage_path),
            ReadFileBytes(full->merged_lineage_path));
}

// ------------------------------------------------------ dispatch loop --

/// A fresh persistent 3-shard campaign directory for DispatchShards: the
/// fake runners below never fuzz, so the program only fixes the plan.
CampaignDirectory OpenDispatchCampaign(const std::string& name) {
  const StormTrackProgram program(32, 8);
  StatusOr<CampaignDirectory> campaign = CampaignDirectory::Open(
      program, 7, 3, PlanWeights{}, TempDir(name), nullptr);
  EXPECT_TRUE(campaign.ok()) << campaign.status();
  EXPECT_EQ(campaign->pending, (std::vector<int>{0, 1, 2}));
  return std::move(*campaign);
}

/// A one-slot runner that answers from `fn`, with no fuzzing and no socket.
ShardRunner FakeRunner(const std::string& name,
                       std::function<StatusOr<ShardCampaignResult>(int)> fn) {
  ShardRunner runner;
  runner.name = name;
  runner.run = std::move(fn);
  return runner;
}

ShardManifest SavedManifest(const CampaignDirectory& campaign) {
  const StatusOr<ShardManifest> manifest =
      LoadShardManifest(campaign.PathOf(kShardManifestFileName));
  EXPECT_TRUE(manifest.ok()) << manifest.status();
  return manifest.ok() ? *manifest : ShardManifest{};
}

TEST(ShardDispatchTest, FailedRunnerIsRetiredAndItsShardRunsElsewhere) {
  CampaignDirectory campaign = OpenDispatchCampaign("dispatch_retire");
  // `flaky` fails its first shard; `steady` holds its first shard until
  // then, so `flaky` is sure to be handed one before the queue drains.
  std::promise<void> flaky_failed;
  const std::shared_future<void> failed = flaky_failed.get_future().share();
  std::atomic<int> flaky_calls{0};
  std::atomic<int> failed_shard{-1};
  std::mutex mu;
  std::vector<int> steady_shards;
  const std::vector<ShardRunner> runners = {
      FakeRunner("flaky",
                 [&](int s) -> StatusOr<ShardCampaignResult> {
                   if (flaky_calls.fetch_add(1) == 0) {
                     failed_shard = s;
                     flaky_failed.set_value();
                   }
                   return ResourceExhaustedError("injected straggler");
                 }),
      FakeRunner("steady", [&](int s) -> StatusOr<ShardCampaignResult> {
        failed.wait();
        std::lock_guard<std::mutex> lock(mu);
        steady_shards.push_back(s);
        return ShardCampaignResult{};
      })};

  const StatusOr<int> committed = DispatchShards(campaign, runners);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 3);
  EXPECT_EQ(flaky_calls.load(), 1);
  std::sort(steady_shards.begin(), steady_shards.end());
  EXPECT_EQ(steady_shards, (std::vector<int>{0, 1, 2}));

  const ShardManifest manifest = SavedManifest(campaign);
  EXPECT_TRUE(manifest.AllFuzzed());
  std::vector<int> expected_counts = {1, 1, 1};
  expected_counts[static_cast<size_t>(failed_shard.load())] = 2;
  EXPECT_EQ(manifest.dispatch_counts, expected_counts);
}

TEST(ShardDispatchTest, LoneRunnerFailureKeepsFinishedShardsCommitted) {
  CampaignDirectory campaign = OpenDispatchCampaign("dispatch_lone");
  // One slot takes the shards in order: 0 commits, 1 fails.
  const std::vector<ShardRunner> runners = {
      FakeRunner("lone", [](int s) -> StatusOr<ShardCampaignResult> {
        if (s == 1) {
          return DataLossError("injected torn artefact");
        }
        return ShardCampaignResult{};
      })};

  const StatusOr<int> committed = DispatchShards(campaign, runners);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kDataLoss)
      << committed.status();
  EXPECT_NE(committed.status().ToString().find("injected torn artefact"),
            std::string::npos)
      << committed.status();

  const ShardManifest manifest = SavedManifest(campaign);
  EXPECT_EQ(manifest.statuses,
            (std::vector<ShardStatus>{ShardStatus::kFuzzed,
                                      ShardStatus::kPending,
                                      ShardStatus::kPending}));
  EXPECT_EQ(manifest.dispatch_counts, (std::vector<int>{1, 1, 0}));
}

TEST(ShardDispatchTest, ExhaustedDispatchBudgetFailsTheCampaign) {
  CampaignDirectory campaign = OpenDispatchCampaign("dispatch_budget");
  campaign.manifest.dispatch_counts[1] = kMaxShardDispatches;
  ASSERT_TRUE(campaign.SaveManifest().ok());
  std::atomic<int> calls{0};
  const std::vector<ShardRunner> runners = {
      FakeRunner("steady", [&](int) -> StatusOr<ShardCampaignResult> {
        ++calls;
        return ShardCampaignResult{};
      })};

  const StatusOr<int> committed = DispatchShards(campaign, runners);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kInternal)
      << committed.status();
  EXPECT_NE(committed.status().ToString().find("dispatch budget"),
            std::string::npos)
      << committed.status();
  // Shard 0 ran and committed before shard 1 hit the budget; shard 1 was
  // never run again.
  EXPECT_EQ(calls.load(), 1);
  const ShardManifest manifest = SavedManifest(campaign);
  EXPECT_EQ(manifest.statuses[0], ShardStatus::kFuzzed);
  EXPECT_EQ(manifest.statuses[1], ShardStatus::kPending);
  EXPECT_EQ(manifest.dispatch_counts[1], kMaxShardDispatches);
}

TEST(ShardDispatchTest, LosingEveryRunnerFailsWithTheLastErrorsCode) {
  CampaignDirectory campaign = OpenDispatchCampaign("dispatch_lost");
  // `first` fails its shard; `second` commits every other shard and fails
  // only on the one `first` lost. That shard is back in the queue only
  // once `first`'s failure is recorded, so `second`'s error is the last.
  std::promise<void> first_failed;
  const std::shared_future<void> failed = first_failed.get_future().share();
  std::atomic<int> lost_shard{-1};
  const std::vector<ShardRunner> runners = {
      FakeRunner("first",
                 [&](int s) -> StatusOr<ShardCampaignResult> {
                   lost_shard = s;
                   first_failed.set_value();
                   return ResourceExhaustedError("injected timeout");
                 }),
      FakeRunner("second", [&](int s) -> StatusOr<ShardCampaignResult> {
        failed.wait();
        if (s == lost_shard.load()) {
          return OutOfRangeError("injected EOF");
        }
        return ShardCampaignResult{};
      })};

  const StatusOr<int> committed = DispatchShards(campaign, runners);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kOutOfRange)
      << committed.status();
  EXPECT_NE(committed.status().ToString().find("injected EOF"),
            std::string::npos)
      << committed.status();
  const ShardManifest manifest = SavedManifest(campaign);
  const size_t lost = static_cast<size_t>(lost_shard.load());
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(manifest.statuses[s],
              s == lost ? ShardStatus::kPending : ShardStatus::kFuzzed)
        << "shard " << s;
    EXPECT_EQ(manifest.dispatch_counts[s], s == lost ? 2 : 1)
        << "shard " << s;
  }
}

// ------------------------------------------------------- golden digests --

/// FNV-1a, fed 8 little-endian bytes at a time.
class Fnv64 {
 public:
  void Add(uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (value >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of `set`'s maximal linear-id runs, in ascending order.
uint64_t RunsDigest(const IndexSet& set) {
  Fnv64 h;
  set.ForEachRun([&h](int64_t begin, int64_t end) {
    h.Add(static_cast<uint64_t>(begin));
    h.Add(static_cast<uint64_t>(end));
  });
  return h.hash();
}

/// Digest of the seed scatter: every seed's coordinates and useful bit, in
/// consumption order.
uint64_t SeedsDigest(const std::vector<Seed>& seeds) {
  Fnv64 h;
  for (const Seed& seed : seeds) {
    for (double v : seed.value) {
      h.AddDouble(v);
    }
    h.Add(seed.useful ? 1 : 0);
  }
  return h.hash();
}

struct GoldenFile {
  size_t discovered_size;
  uint64_t discovered_runs;
  size_t approx_size;
  uint64_t approx_runs;
  int final_hulls;
};

struct GoldenCampaign {
  const char* program;
  int iterations;
  int evaluations;
  int useful_evaluations;
  int restarts;
  double final_epsilon;
  size_t num_seeds;
  uint64_t seeds;
  std::vector<GoldenFile> files;
};

// Pins the multi-file campaign's exact output — every file's discovered
// and rasterised id runs, the deterministic FuzzStats fields and the seed
// scatter — at jobs 1 and 4. This is the independent reference for the
// multi-file path: any change to how the campaign is driven, collected or
// carved that moves one id, one seed or one counter fails here.
TEST(ShardGoldenTest, MultiFileResultsMatchGoldenDigests) {
  const GoldenCampaign goldens[] = {
      {"STORM", 400, 400, 236, 17, 0x1.e1bda5119ce07p-1, 400,
       0x8c0da9bb29cca690ULL,
       {{528, 0x19c4c8a569f55b79ULL, 528, 0x19c4c8a569f55b79ULL, 1},
        {2176, 0xea2525f286f52d15ULL, 2176, 0xea2525f286f52d15ULL, 1}}},
      {"CLIMATE", 400, 400, 236, 17, 0x1.e1bda5119ce07p-1, 400,
       0x8c0da9bb29cca690ULL,
       {{699, 0xf9d1c314c17c8d8eULL, 724, 0xb8d6d2ac146df791ULL, 1},
        {2100, 0x93b9ca9961fc52fcULL, 2136, 0x9dec02cf9026a5c0ULL, 1},
        {523, 0xcc2c7ec0d0b29d5aULL, 528, 0x19c4c8a569f55b79ULL, 1},
        {32, 0x677900dabee8a885ULL, 32, 0x677900dabee8a885ULL, 1}}},
  };
  for (const GoldenCampaign& golden : goldens) {
    const std::unique_ptr<MultiFileProgram> program =
        CreateMultiFileProgram(golden.program, 32);
    ASSERT_NE(program, nullptr);
    for (int jobs : {1, 4}) {
      SCOPED_TRACE(std::string(golden.program) + " jobs " +
                   std::to_string(jobs));
      KondoConfig config = ShortCampaignConfig(19);
      config.jobs = jobs;
      const auto result = RunMultiFileKondo(*program, config);
      const FuzzStats& stats = result.fuzz_stats;
      EXPECT_EQ(stats.iterations, golden.iterations);
      EXPECT_EQ(stats.evaluations, golden.evaluations);
      EXPECT_EQ(stats.useful_evaluations, golden.useful_evaluations);
      EXPECT_EQ(stats.restarts, golden.restarts);
      EXPECT_EQ(stats.final_epsilon, golden.final_epsilon);
      EXPECT_FALSE(stats.stopped_by_stagnation);
      EXPECT_FALSE(stats.stopped_by_budget);
      EXPECT_TRUE(stats.stopped_by_eval_budget);
      EXPECT_EQ(stats.retries, 0);
      EXPECT_EQ(stats.quarantined, 0);
      ASSERT_EQ(result.per_file_discovered.size(), golden.files.size());
      for (size_t f = 0; f < golden.files.size(); ++f) {
        SCOPED_TRACE("file " + std::to_string(f));
        const GoldenFile& file = golden.files[f];
        EXPECT_EQ(result.per_file_discovered[f].size(), file.discovered_size);
        EXPECT_EQ(RunsDigest(result.per_file_discovered[f]),
                  file.discovered_runs);
        EXPECT_EQ(result.per_file_approx[f].size(), file.approx_size);
        EXPECT_EQ(RunsDigest(result.per_file_approx[f]), file.approx_runs);
        EXPECT_EQ(result.per_file_carve_stats[f].final_hulls,
                  file.final_hulls);
      }

      // The seed scatter of the same campaign, through the in-memory
      // scheduler (the one-shard schedule is the unsharded schedule).
      ShardOptions options;
      options.shards = 1;
      const StatusOr<ShardedRunResult> run =
          RunShardedCampaign(*program, config, options);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->merged.seeds.size(), golden.num_seeds);
      EXPECT_EQ(SeedsDigest(run->merged.seeds), golden.seeds);
    }
  }
}

// Pins the bytes of merged.kel2 from a persistent three-shard campaign.
TEST(ShardGoldenTest, MergedLineageMatchesGoldenDigest) {
  const StormTrackProgram program(32, 8);
  ShardOptions options;
  options.shards = 3;
  options.output_dir = TempDir("golden_lineage");
  const StatusOr<ShardedRunResult> run =
      RunShardedCampaign(program, ShortCampaignConfig(23), options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_TRUE(run->complete);
  const std::string bytes = ReadFileBytes(run->merged_lineage_path);
  EXPECT_EQ(bytes.size(), 18705u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xa51c3480u);
}

// ----------------------------------------------------------- satellites --

TEST(FuzzEvalBudgetTest, MaxEvalsIsJobsInvariantAndRecorded) {
  const std::unique_ptr<Program> program = CreateProgram("CS");
  KondoConfig config = ScaledKondoConfig(program->data_shape());
  config.fuzz.max_evals = 100;

  FuzzResult baseline;
  bool first = true;
  for (int jobs : TestJobs()) {
    CampaignExecutor executor(jobs);
    FuzzSchedule schedule(program->param_space(), program->data_shape(),
                          config.fuzz, 7);
    const FuzzResult result =
        schedule.Run(executor, MakeCandidateTest(*program));
    EXPECT_EQ(result.stats.evaluations, 100);
    EXPECT_TRUE(result.stats.stopped_by_eval_budget);
    EXPECT_FALSE(result.stats.stopped_by_stagnation);
    if (first) {
      baseline = result;
      first = false;
      continue;
    }
    const std::string what = "jobs=" + std::to_string(jobs);
    ExpectStatsEqual(result.stats, baseline.stats, what);
    ExpectIndexSetsEqual(result.discovered, baseline.discovered, what);
    ASSERT_EQ(result.seeds.size(), baseline.seeds.size());
    for (size_t i = 0; i < result.seeds.size(); ++i) {
      EXPECT_EQ(result.seeds[i].value, baseline.seeds[i].value) << what;
      EXPECT_EQ(result.seeds[i].useful, baseline.seeds[i].useful) << what;
    }
  }
}

TEST(ParallelRasterizeTest, MatchesSerialRasterize) {
  // Scattered clusters carve into several hulls, so the parallel per-hull
  // path actually fans out.
  IndexSet discovered(Shape{64, 64});
  for (int64_t x = 2; x < 12; ++x) {
    for (int64_t y = 2; y < 12; ++y) {
      discovered.Insert(Index{x, y});
    }
  }
  for (int64_t x = 40; x < 60; x += 2) {
    discovered.Insert(Index{x, 50});
    discovered.Insert(Index{50, x});
  }
  CarveStats stats;
  const Carver carver(ScaledKondoConfig(Shape{64, 64}).carve);
  const CarvedSubset carved = carver.Carve(discovered, &stats);
  ASSERT_GT(stats.final_hulls, 1);

  const IndexSet serial = carved.Rasterize();
  CampaignExecutor executor(4);
  const IndexSet parallel = Carver::Rasterize(carved, executor);
  ExpectIndexSetsEqual(parallel, serial, "parallel rasterize");
}

}  // namespace
}  // namespace kondo
