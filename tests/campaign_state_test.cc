#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "core/debloat_test.h"
#include "fuzz/campaign_state.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

CampaignState SmallCampaign() {
  CampaignState state;
  state.shape = Shape{16, 16};
  state.discovered = IndexSet(state.shape);
  state.discovered.Insert(Index{1, 2});
  state.discovered.Insert(Index{15, 15});
  state.seeds.push_back(Seed{{3.0, 4.0}, true});
  state.seeds.push_back(Seed{{100.0, -2.5}, false});
  return state;
}

TEST(CampaignStateTest, RoundTrip) {
  const std::string path = TempPath("campaign.kcs");
  ASSERT_TRUE(SaveCampaignState(path, SmallCampaign()).ok());
  StatusOr<CampaignState> loaded = LoadCampaignState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->shape, (Shape{16, 16}));
  ASSERT_EQ(loaded->seeds.size(), 2u);
  EXPECT_TRUE(loaded->seeds[0].useful);
  EXPECT_DOUBLE_EQ(loaded->seeds[0].value[1], 4.0);
  EXPECT_FALSE(loaded->seeds[1].useful);
  EXPECT_DOUBLE_EQ(loaded->seeds[1].value[1], -2.5);
  EXPECT_EQ(loaded->discovered.size(), 2u);
  EXPECT_TRUE(loaded->discovered.Contains(Index{1, 2}));
}

TEST(CampaignStateTest, ShuffledIdLinesLoadToTheSameState) {
  CampaignState state = SmallCampaign();
  state.shape = Shape{64, 64};
  state.discovered = IndexSet(state.shape);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    state.discovered.InsertLinear(rng.UniformInt(0, 64 * 64 - 1));
  }
  const std::string path = TempPath("shuffled.kcs");
  ASSERT_TRUE(SaveCampaignState(path, state).ok());

  // Keep the header and seed lines; shuffle the `I` lines and repeat some.
  std::ifstream in(path);
  std::vector<std::string> head;
  std::vector<std::string> ids;
  for (std::string line; std::getline(in, line);) {
    (line.rfind("I ", 0) == 0 ? ids : head).push_back(line);
  }
  in.close();
  ASSERT_EQ(ids.size(), state.discovered.size());
  ids.insert(ids.end(), ids.begin(), ids.begin() + 500);
  rng.Shuffle(ids);
  std::ofstream out(path, std::ios::trunc);
  for (const std::vector<std::string>* lines : {&head, &ids}) {
    for (const std::string& line : *lines) {
      out << line << "\n";
    }
  }
  out.close();

  StatusOr<CampaignState> loaded = LoadCampaignState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->shape, state.shape);
  EXPECT_EQ(loaded->seeds.size(), state.seeds.size());
  EXPECT_EQ(loaded->discovered.ToSortedLinearIds(),
            state.discovered.ToSortedLinearIds());
}

TEST(CampaignStateTest, DoublePrecisionPreserved) {
  CampaignState state = SmallCampaign();
  state.seeds[0].value = {0.1234567890123456789, 1e-300};
  const std::string path = TempPath("precise.kcs");
  ASSERT_TRUE(SaveCampaignState(path, state).ok());
  StatusOr<CampaignState> loaded = LoadCampaignState(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->seeds[0].value[0], state.seeds[0].value[0]);
  EXPECT_DOUBLE_EQ(loaded->seeds[0].value[1], 1e-300);
}

TEST(CampaignStateTest, RejectsGarbage) {
  const std::string path = TempPath("garbage.kcs");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not a campaign\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadCampaignState(path).ok());
}

TEST(CampaignStateTest, RejectsOutOfRangeIds) {
  const std::string path = TempPath("badid.kcs");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("KCS1 2 4 4\nI 99\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadCampaignState(path).ok());
}

TEST(CampaignStateTest, RejectsHeaderShapesOutsideTheShapeBounds) {
  const char* headers[] = {
      "KCS1 5 1 1 1 1 1\n",                         // Rank above kMaxRank.
      "KCS1 0\n",                                   // Rank zero.
      "KCS1 2000000000 1\n",                        // Rank with no dims.
      "KCS1 2 4 0\n",                               // Non-positive dim.
      "KCS1 3 2147483648 2147483648 2147483648\n",  // 2^93 elements.
  };
  for (const char* header : headers) {
    SCOPED_TRACE(header);
    const std::string path = TempPath("badshape.kcs");
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(header, f);
    std::fclose(f);
    EXPECT_EQ(LoadCampaignState(path).status().code(), StatusCode::kDataLoss);
  }
}

TEST(CampaignStateTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadCampaignState(TempPath("absent.kcs")).status().code(),
            StatusCode::kNotFound);
}

TEST(CampaignStateTest, MergeUnionsDiscoveryAndConcatenatesSeeds) {
  CampaignState base = SmallCampaign();
  CampaignState extra;
  extra.shape = base.shape;
  extra.discovered = IndexSet(extra.shape);
  extra.discovered.Insert(Index{1, 2});  // Duplicate.
  extra.discovered.Insert(Index{0, 0});  // New.
  extra.seeds.push_back(Seed{{7.0, 7.0}, true});
  MergeCampaignState(&base, extra);
  EXPECT_EQ(base.seeds.size(), 3u);
  EXPECT_EQ(base.discovered.size(), 3u);
}

TEST(CampaignStateTest, ResumedCampaignExtendsDiscovery) {
  // A short campaign persisted, then a second campaign merged in: the
  // combined state discovers at least as much as either alone.
  const std::unique_ptr<Program> program = CreateProgram("CS", 64);
  const DebloatTestFn test = MakeDebloatTest(*program);

  FuzzConfig short_config;
  short_config.max_iter = 150;
  FuzzSchedule first(program->param_space(), program->data_shape(),
                     short_config, 1);
  CampaignState state =
      MakeCampaignState(program->data_shape(), first.Run(test));
  const size_t after_first = state.discovered.size();

  const std::string path = TempPath("resume.kcs");
  ASSERT_TRUE(SaveCampaignState(path, state).ok());
  StatusOr<CampaignState> reloaded = LoadCampaignState(path);
  ASSERT_TRUE(reloaded.ok());

  FuzzSchedule second(program->param_space(), program->data_shape(),
                      short_config, 2);
  MergeCampaignState(&*reloaded,
                     MakeCampaignState(program->data_shape(),
                                       second.Run(test)));
  EXPECT_GE(reloaded->discovered.size(), after_first);
  EXPECT_GE(reloaded->seeds.size(), 2u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CampaignStateTest, FileBytesArePinned) {
  const std::string path = TempPath("pinned.kcs");
  ASSERT_TRUE(SaveCampaignState(path, SmallCampaign()).ok());
  EXPECT_EQ(ReadFileBytes(path),
            "KCS1 2 16 16\nS 1 3 4\nS 0 100 -2.5\nI 18\nI 255\n");
}

// `kondo fuzz --out S --resume S` overwrites the state it resumed from: a
// crash at any point of the save must leave the old state or the new one.
TEST(CampaignStateCrashSweepTest, InterruptedSaveKeepsTheOldOrNewState) {
  const CampaignState before = SmallCampaign();
  CampaignState after = SmallCampaign();
  after.seeds.push_back(Seed{{7.0, 0.125}, true});
  after.discovered.Insert(Index{4, 4});

  const std::string scratch = TempPath("crash_count.kcs");
  ASSERT_TRUE(SaveCampaignState(scratch, after).ok());
  const std::string new_bytes = ReadFileBytes(scratch);
  ASSERT_TRUE(SaveCampaignState(scratch, before).ok());
  const std::string old_bytes = ReadFileBytes(scratch);
  FaultInjectingEnv counter(Env::Default(), FaultPlan{});
  ASSERT_TRUE(SaveCampaignState(scratch, after, &counter).ok());
  EXPECT_EQ(ReadFileBytes(scratch), new_bytes);
  const int64_t num_ops = counter.ops();
  ASSERT_GT(num_ops, 2);

  for (int64_t k = 0; k < num_ops; ++k) {
    const std::string path =
        TempPath("crash_" + std::to_string(k) + ".kcs");
    ASSERT_TRUE(SaveCampaignState(path, before).ok());
    FaultPlan plan;
    plan.crash_at_op = k;
    FaultInjectingEnv env(Env::Default(), plan);
    EXPECT_FALSE(SaveCampaignState(path, after, &env).ok())
        << "crash at op " << k << " did not surface";
    const std::string left = ReadFileBytes(path);
    EXPECT_TRUE(left == old_bytes || left == new_bytes)
        << "torn campaign state after crash at op " << k;
    StatusOr<CampaignState> loaded = LoadCampaignState(path);
    ASSERT_TRUE(loaded.ok()) << "crash at op " << k << ": "
                             << loaded.status();
    const size_t seeds = loaded->seeds.size();
    EXPECT_TRUE(seeds == before.seeds.size() || seeds == after.seeds.size())
        << "crash at op " << k;
  }
}

}  // namespace
}  // namespace kondo
