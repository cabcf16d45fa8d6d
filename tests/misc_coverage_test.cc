// Coverage for recently added surfaces: the fuzz-schedule observer, the
// scaled configuration helper, and assorted edge paths.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "array/kdf_file.h"
#include "carve/carver.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "fuzz/fuzz_schedule.h"
#include "geom/hull.h"
#include "workloads/real_app_programs.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

// ------------------------------------------------------ schedule observer --

TEST(FuzzObserverTest, SeesEveryEvaluationInOrder) {
  const std::unique_ptr<Program> program = CreateProgram("CS", 64);
  FuzzConfig config;
  config.max_iter = 120;
  FuzzSchedule schedule(program->param_space(), program->data_shape(),
                        config, 5);
  std::vector<int> iterations;
  std::vector<size_t> discovered_sizes;
  const FuzzResult result = schedule.Run(
      MakeDebloatTest(*program),
      [&](int itr, const ParamValue& v, bool useful, size_t discovered) {
        iterations.push_back(itr);
        discovered_sizes.push_back(discovered);
        EXPECT_EQ(v.size(), 2u);
        // Usefulness matches the program's guard.
        EXPECT_EQ(useful, v[0] <= v[1]);
      });
  ASSERT_EQ(iterations.size(), result.seeds.size());
  // Iterations strictly increase; discovery is monotone non-decreasing.
  for (size_t i = 1; i < iterations.size(); ++i) {
    EXPECT_LT(iterations[i - 1], iterations[i]);
    EXPECT_LE(discovered_sizes[i - 1], discovered_sizes[i]);
  }
  EXPECT_EQ(discovered_sizes.back(), result.discovered.size());
}

TEST(FuzzObserverTest, DiscoveredSizeIsExactAfterEveryTest) {
  // The schedule stages new ids apart from I_Θ and merges them in bulk;
  // the size it reports after each test must still be |∪ I_v| so far.
  // ARD's one-t slices leave I_Θ fragmented into many runs, so most of its
  // tests are staged rather than merged.
  std::vector<std::unique_ptr<Program>> programs;
  programs.push_back(CreateProgram("CS", 64));
  programs.push_back(std::make_unique<ArdProgram>(32));
  for (const std::unique_ptr<Program>& program : programs) {
    SCOPED_TRACE(std::string(program->name()));
    FuzzConfig config;
    config.max_iter = 400;
    FuzzSchedule schedule(program->param_space(), program->data_shape(),
                          config, 5);
    const DebloatTestFn test = MakeDebloatTest(*program);
    IndexSet reference(program->data_shape());
    std::vector<size_t> expected;
    std::vector<size_t> reported;
    const FuzzResult result = schedule.Run(
        [&](const ParamValue& v) {
          IndexSet accessed = test(v);
          reference.Union(accessed);
          expected.push_back(reference.size());
          return accessed;
        },
        [&](int, const ParamValue&, bool, size_t discovered) {
          reported.push_back(discovered);
        });
    EXPECT_EQ(reported, expected);
    EXPECT_EQ(result.discovered.ToSortedLinearIds(),
              reference.ToSortedLinearIds());
  }
}

TEST(FuzzObserverTest, NullObserverIsAllowed) {
  const std::unique_ptr<Program> program = CreateProgram("CS", 32);
  FuzzConfig config;
  config.max_iter = 50;
  FuzzSchedule schedule(program->param_space(), program->data_shape(),
                        config, 5);
  const FuzzResult result = schedule.Run(MakeDebloatTest(*program), nullptr);
  EXPECT_GT(result.stats.evaluations, 0);
}

// ------------------------------------------------------ scaled config --

TEST(ScaledKondoConfigTest, DefaultShapeKeepsFigFiveValues) {
  const KondoConfig config = ScaledKondoConfig(Shape{128, 128});
  EXPECT_DOUBLE_EQ(config.fuzz.u_dist.lo, 5.0);
  EXPECT_DOUBLE_EQ(config.fuzz.u_dist.hi, 15.0);
  EXPECT_DOUBLE_EQ(config.fuzz.n_dist.hi, 50.0);
  EXPECT_DOUBLE_EQ(config.fuzz.diameter, 20.0);
  EXPECT_EQ(config.carve.cell_size, 16);
  EXPECT_DOUBLE_EQ(config.carve.center_d_thresh, 20.0);
  EXPECT_DOUBLE_EQ(config.carve.boundary_d_thresh, 10.0);
}

TEST(ScaledKondoConfigTest, LargestExtentDrivesTheScale) {
  const KondoConfig config = ScaledKondoConfig(Shape{64, 512, 64});
  const double scale = 512.0 / 128.0;
  EXPECT_DOUBLE_EQ(config.fuzz.u_dist.hi, 15.0 * scale);
  EXPECT_DOUBLE_EQ(config.carve.center_d_thresh, 20.0 * scale);
  EXPECT_EQ(config.carve.cell_size, 64);
}

TEST(ScaledKondoConfigTest, SmallShapesNeverShrinkBelowDefaults) {
  const KondoConfig config = ScaledKondoConfig(Shape{16, 16});
  EXPECT_DOUBLE_EQ(config.fuzz.u_dist.lo, 5.0);
  EXPECT_EQ(config.carve.cell_size, 16);
}

// ----------------------------------------------------------- geometry --

TEST(HullEdgeCaseTest, AllIdenticalPointsIn3DAmbient) {
  const std::vector<Vec3> points(10, Vec3(4, 5, 6));
  const Hull hull = Hull::Build(points, 3);
  EXPECT_EQ(hull.affine_rank(), 0);
  EXPECT_TRUE(hull.Contains(Vec3(4, 5, 6)));
  EXPECT_FALSE(hull.Contains(Vec3(4, 5, 6.5)));
  EXPECT_DOUBLE_EQ(hull.Measure(), 0.0);
}

TEST(HullEdgeCaseTest, CountIntegerPointsMatchesRasterSize) {
  const Hull hull = Hull::FromIndices(
      {Index{0, 0}, Index{6, 0}, Index{0, 6}}, 2);
  const Shape shape{10, 10};
  IndexSet raster(shape);
  hull.RasterizeInto(&raster);
  EXPECT_EQ(hull.CountIntegerPoints(shape),
            static_cast<int64_t>(raster.size()));
}

TEST(HullEdgeCaseTest, RankOneIndices) {
  const Hull hull = Hull::FromIndices({Index{2}, Index{9}}, 1);
  EXPECT_TRUE(hull.ContainsIndex(Index{5}));
  EXPECT_FALSE(hull.ContainsIndex(Index{1}));
  IndexSet raster(Shape{16});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 8u);  // 2..9 inclusive.
}

TEST(CarverEdgeCaseTest, RankOneCarving) {
  IndexSet points(Shape{64});
  points.Insert(Index{3});
  points.Insert(Index{5});
  points.Insert(Index{40});
  points.Insert(Index{42});
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  const IndexSet raster = carved.Rasterize();
  EXPECT_TRUE(raster.Contains(Index{4}));    // Sandwiched.
  EXPECT_TRUE(raster.Contains(Index{41}));
  EXPECT_FALSE(raster.Contains(Index{20}));  // Far gap (distance 35 > 20).
}

// --------------------------------------------------------- audited VPIC --

TEST(AuditedVpicTest, AuditedTestMatchesFastTestOnDataDependentReads) {
  // VPIC's reads are data-dependent (via its energy index); the audited
  // byte-offset path must recover the identical index subset.
  const std::unique_ptr<Program> program = CreateProgram("VPIC", 16);
  DataArray array(program->data_shape(), DType::kFloat64);
  const std::string path = ::testing::TempDir() + "/vpic16.kdf";
  ASSERT_TRUE(WriteKdfFile(path, array).ok());
  const DebloatTestFn audited = MakeAuditedDebloatTest(*program, path);
  const DebloatTestFn fast = MakeDebloatTest(*program);
  for (double threshold : {60.0, 75.0, 95.0}) {
    const ParamValue v{threshold, 8.0};
    const IndexSet a = audited(v);
    const IndexSet f = fast(v);
    EXPECT_EQ(a.size(), f.size()) << threshold;
    EXPECT_TRUE(f.IsSubsetOf(a)) << threshold;
  }
}

}  // namespace
}  // namespace kondo
