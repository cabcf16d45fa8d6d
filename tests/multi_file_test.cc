// Tests for the multi-file generalization (footnote 1 / Section VI).

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/multi_kondo.h"
#include "workloads/multi_file_program.h"

namespace kondo {
namespace {

TEST(StormTrackProgramTest, DeclaresTwoFiles) {
  StormTrackProgram program(64, 16);
  EXPECT_EQ(program.num_files(), 2);
  EXPECT_EQ(program.file_name(0), "terrain");
  EXPECT_EQ(program.file_name(1), "atmosphere");
  EXPECT_EQ(program.file_shape(0), (Shape{64, 64}));
  EXPECT_EQ(program.file_shape(1), (Shape{32, 32, 16}));
}

TEST(StormTrackProgramTest, RunTouchesBothFiles) {
  StormTrackProgram program(64, 16);
  const MultiIndexSets sets = program.AccessSets({2.0, 10.0});
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_FALSE(sets[0].empty());
  EXPECT_FALSE(sets[1].empty());
  // Terrain track: diagonal from (2, 10).
  EXPECT_TRUE(sets[0].Contains(Index{2, 10}));
  EXPECT_TRUE(sets[0].Contains(Index{3, 11}));
  // Atmosphere column above the entry point.
  EXPECT_TRUE(sets[1].Contains(Index{1, 5, 0}));
  EXPECT_TRUE(sets[1].Contains(Index{1, 5, 15}));
}

TEST(StormTrackProgramTest, GuardRejectsUnsupportedEntries) {
  StormTrackProgram program(64, 16);
  const MultiIndexSets sets = program.AccessSets({10.0, 2.0});  // x0 > y0.
  EXPECT_TRUE(sets[0].empty());
  EXPECT_TRUE(sets[1].empty());
}

TEST(StormTrackProgramTest, AtmosphereIsReadEveryOtherStep) {
  StormTrackProgram program(64, 16);
  const MultiIndexSets sets = program.AccessSets({0.0, 0.0});
  // Track has 64 cells; columns at even steps over a coarser grid. The
  // track (k, k) maps to atmosphere (k/2, k/2): steps 0,2,4,... give
  // distinct columns (0,0), (1,1), ..., (31,31).
  EXPECT_EQ(sets[0].size(), 64u);
  EXPECT_EQ(sets[1].size(), static_cast<size_t>(32 * 16));
}

TEST(StormTrackProgramTest, AccessSetsWithinGroundTruths) {
  StormTrackProgram program(32, 8);
  const MultiIndexSets truths = program.GroundTruths();
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const ParamValue v = program.param_space().Sample(rng);
    const MultiIndexSets sets = program.AccessSets(v);
    EXPECT_TRUE(sets[0].IsSubsetOf(truths[0]));
    EXPECT_TRUE(sets[1].IsSubsetOf(truths[1]));
  }
}

TEST(MultiKondoTest, CarvesEachFileIndependently) {
  StormTrackProgram program(64, 16);
  KondoConfig config;
  config.rng_seed = 3;
  const MergedCampaign result = RunMultiFileKondo(program, config);
  ASSERT_EQ(result.per_file_approx.size(), 2u);

  const MultiIndexSets truths = program.GroundTruths();
  const AccuracyMetrics terrain =
      ComputeAccuracy(truths[0], result.per_file_approx[0]);
  const AccuracyMetrics atmosphere =
      ComputeAccuracy(truths[1], result.per_file_approx[1]);
  EXPECT_GT(terrain.recall, 0.9);
  EXPECT_GT(atmosphere.recall, 0.9);
  EXPECT_GT(terrain.precision, 0.5);
  EXPECT_GT(atmosphere.precision, 0.9);
}

TEST(MultiKondoTest, DiscoveredSubsetsAreWithinApprox) {
  StormTrackProgram program(64, 16);
  KondoConfig config;
  config.rng_seed = 9;
  const MergedCampaign result = RunMultiFileKondo(program, config);
  for (size_t f = 0; f < 2; ++f) {
    EXPECT_TRUE(result.per_file_discovered[f].IsSubsetOf(
        result.per_file_approx[f]))
        << "file " << f;
  }
}

TEST(MultiKondoTest, DeterministicUnderSeed) {
  StormTrackProgram program(32, 8);
  KondoConfig config;
  config.rng_seed = 77;
  const MergedCampaign a = RunMultiFileKondo(program, config);
  const MergedCampaign b = RunMultiFileKondo(program, config);
  for (size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(a.per_file_approx[f].size(), b.per_file_approx[f].size());
  }
}

}  // namespace
}  // namespace kondo
