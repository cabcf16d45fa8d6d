#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "array/index_set.h"
#include "carve/carve_config.h"
#include "carve/carved_subset.h"
#include "carve/carver.h"
#include "common/rng.h"
#include "exec/campaign_executor.h"
#include "geom/hull.h"

namespace kondo {
namespace {

IndexSet FilledRect(const Shape& shape, int64_t x0, int64_t y0, int64_t x1,
                    int64_t y1) {
  IndexSet set(shape);
  for (int64_t x = x0; x <= x1; ++x) {
    for (int64_t y = y0; y <= y1; ++y) {
      set.Insert(Index{x, y});
    }
  }
  return set;
}

/// FNV-1a over every hull's vertex bits, then `subset`'s sorted linear ids.
uint64_t CarveDigest(const CarvedSubset& carved, const IndexSet& subset) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  add(static_cast<uint64_t>(carved.num_hulls()));
  for (const Hull& hull : carved.hulls()) {
    add(static_cast<uint64_t>(hull.vertices().size()));
    for (const Vec3& v : hull.vertices()) {
      for (int d = 0; d < 3; ++d) {
        const double coord = v[d];
        uint64_t bits = 0;
        std::memcpy(&bits, &coord, sizeof(bits));
        add(bits);
      }
    }
  }
  for (int64_t id : subset.ToSortedLinearIds()) {
    add(static_cast<uint64_t>(id));
  }
  return h;
}

// ------------------------------------------------------------- CLOSE(.) --

TEST(CloseTest, BoundaryOrCenterMode) {
  CarveConfig config;
  config.center_d_thresh = 20.0;
  config.boundary_d_thresh = 10.0;
  config.close_mode = CloseMode::kBoundaryOrCenter;
  Carver carver(config);

  const Hull a = Hull::FromIndices({Index{0, 0}, Index{4, 4}}, 2);
  const Hull near = Hull::FromIndices({Index{8, 8}, Index{12, 12}}, 2);
  const Hull far = Hull::FromIndices({Index{100, 100}, Index{104, 104}}, 2);
  EXPECT_TRUE(carver.Close(a, near));   // Boundary distance ~5.7.
  EXPECT_FALSE(carver.Close(a, far));   // Both distances huge.
}

TEST(CloseTest, CenterAloneSufficesInOrMode) {
  CarveConfig config;
  config.center_d_thresh = 200.0;
  config.boundary_d_thresh = 1.0;
  config.close_mode = CloseMode::kBoundaryOrCenter;
  Carver carver(config);
  // Far-apart boundaries but centres within the generous centre threshold:
  // the big-hull-absorbs-small-hull case the paper describes.
  const Hull a = Hull::FromIndices({Index{0, 0}, Index{40, 40}}, 2);
  const Hull b = Hull::FromIndices({Index{80, 80}, Index{90, 90}}, 2);
  EXPECT_TRUE(carver.Close(a, b));
}

TEST(CloseTest, AndModeRequiresBoth) {
  CarveConfig config;
  config.center_d_thresh = 200.0;
  config.boundary_d_thresh = 1.0;
  config.close_mode = CloseMode::kBoundaryAndCenter;
  Carver carver(config);
  const Hull a = Hull::FromIndices({Index{0, 0}, Index{40, 40}}, 2);
  const Hull b = Hull::FromIndices({Index{80, 80}, Index{90, 90}}, 2);
  EXPECT_FALSE(carver.Close(a, b));
}

/// CLOSE as Algorithm 2 states it: both distances evaluated in full.
bool FullClose(const CarveConfig& config, const Hull& a, const Hull& b) {
  const bool boundary_close =
      a.MinVertexDistance(b) <= config.boundary_d_thresh;
  const bool center_close = a.CentroidDistance(b) <= config.center_d_thresh;
  return config.close_mode == CloseMode::kBoundaryOrCenter
             ? boundary_close || center_close
             : boundary_close && center_close;
}

/// A hull of `count` random integer points within `radius` of a random
/// centre in [0, 48)^rank.
Hull RandomHull(Rng& rng, int rank, int count, int64_t radius) {
  int64_t centre[3] = {0, 0, 0};
  for (int d = 0; d < rank; ++d) {
    centre[d] = rng.UniformInt(0, 47);
  }
  std::vector<Vec3> points;
  for (int i = 0; i < count; ++i) {
    Vec3 p;
    for (int d = 0; d < rank; ++d) {
      p[d] = static_cast<double>(centre[d] + rng.UniformInt(-radius, radius));
    }
    points.push_back(p);
  }
  return Hull::Build(points, rank);
}

TEST(CloseTest, CheapFirstMatchesFullPredicateOnRandomPairs) {
  Rng rng(53);
  int close_pairs = 0;
  int far_pairs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int rank = trial % 2 == 0 ? 3 : 2;
    const int a_count = static_cast<int>(rng.UniformInt(1, 30));
    const Hull a = RandomHull(rng, rank, a_count, rng.UniformInt(0, 8));
    const int b_count = static_cast<int>(rng.UniformInt(1, 30));
    const Hull b = RandomHull(rng, rank, b_count, rng.UniformInt(0, 8));
    CarveConfig config;
    // Every fourth trial puts a threshold exactly on the pair's distance.
    config.boundary_d_thresh = trial % 4 == 1
                                   ? a.MinVertexDistance(b)
                                   : rng.UniformDouble(0.0, 30.0);
    config.center_d_thresh = trial % 4 == 3 ? a.CentroidDistance(b)
                                            : rng.UniformDouble(0.0, 40.0);
    for (CloseMode mode :
         {CloseMode::kBoundaryOrCenter, CloseMode::kBoundaryAndCenter}) {
      config.close_mode = mode;
      const bool expected = FullClose(config, a, b);
      EXPECT_EQ(Carver(config).Close(a, b), expected)
          << "trial=" << trial << " mode=" << static_cast<int>(mode);
      ++(expected ? close_pairs : far_pairs);
    }
    EXPECT_LE(a.BoundingBoxDistance(b), a.MinVertexDistance(b))
        << "trial=" << trial;
  }
  // Both answers occur often enough for the comparison to mean something.
  EXPECT_GT(close_pairs, 100);
  EXPECT_GT(far_pairs, 100);
}

// --------------------------------------------------------------- Carver --

TEST(CarverTest, SingleBlobBecomesOneHull) {
  const Shape shape{64, 64};
  const IndexSet points = FilledRect(shape, 10, 10, 40, 40);
  Carver carver(CarveConfig{});
  CarveStats stats;
  const CarvedSubset carved = carver.Carve(points, &stats);
  EXPECT_EQ(carved.num_hulls(), 1);
  EXPECT_GT(stats.initial_hulls, 1);
  EXPECT_EQ(stats.merge_operations, stats.initial_hulls - 1);
  EXPECT_EQ(stats.final_hulls, 1);
}

TEST(CarverTest, DistantBlobsStaySeparate) {
  const Shape shape{128, 128};
  IndexSet points = FilledRect(shape, 0, 0, 15, 15);
  points.Union(FilledRect(shape, 100, 100, 115, 115));
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 2);
}

TEST(CarverTest, SeparateBlobsDoNotLeakIntoGap) {
  const Shape shape{128, 128};
  IndexSet points = FilledRect(shape, 0, 0, 15, 15);
  points.Union(FilledRect(shape, 100, 100, 115, 115));
  Carver carver(CarveConfig{});
  const IndexSet raster = carver.Carve(points).Rasterize();
  EXPECT_EQ(raster.size(), points.size());
  EXPECT_FALSE(raster.Contains(Index{50, 50}));
}

TEST(CarverTest, SandwichedGapIsRecovered) {
  // Two rectangles separated by a thin unobserved gap: merging recovers the
  // sandwiched indices (the Fig. 6 motivation).
  const Shape shape{64, 64};
  IndexSet points = FilledRect(shape, 0, 0, 20, 9);
  points.Union(FilledRect(shape, 0, 13, 20, 22));
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  const IndexSet raster = carved.Rasterize();
  EXPECT_TRUE(raster.Contains(Index{10, 11}));  // Inside the gap.
}

TEST(CarverTest, EmptyInputYieldsNoHulls) {
  Carver carver(CarveConfig{});
  CarveStats stats;
  const CarvedSubset carved = carver.Carve(IndexSet(Shape{32, 32}), &stats);
  EXPECT_EQ(carved.num_hulls(), 0);
  EXPECT_EQ(stats.num_cells, 0);
  EXPECT_TRUE(carved.Rasterize().empty());
}

TEST(CarverTest, SinglePointInput) {
  IndexSet points(Shape{32, 32});
  points.Insert(Index{5, 7});
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  const IndexSet raster = carved.Rasterize();
  EXPECT_EQ(raster.size(), 1u);
  EXPECT_TRUE(raster.Contains(Index{5, 7}));
}

TEST(CarverTest, RasterizeIsSupersetOfInputProperty) {
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const Shape shape{96, 96};
    IndexSet points(shape);
    const int clusters = static_cast<int>(rng.UniformInt(1, 4));
    for (int c = 0; c < clusters; ++c) {
      const int64_t cx = rng.UniformInt(10, 85);
      const int64_t cy = rng.UniformInt(10, 85);
      for (int i = 0; i < 40; ++i) {
        points.Insert(Index{cx + rng.UniformInt(-8, 8),
                            cy + rng.UniformInt(-8, 8)});
      }
    }
    Carver carver(CarveConfig{});
    const IndexSet raster = carver.Carve(points).Rasterize();
    EXPECT_TRUE(points.IsSubsetOf(raster)) << "trial=" << trial;
  }
}

TEST(CarverTest, ParallelScanCarveIsBitIdenticalToSerial) {
  // The executor overload builds the cell hulls over its workers; stored
  // in cell order, they give the same merge sequence — and therefore every
  // hull, every stat, and the rasterised result — as the serial overload.
  Rng rng(29);
  CampaignExecutor executor(4);
  for (int trial = 0; trial < 6; ++trial) {
    const Shape shape{128, 128};
    IndexSet points(shape);
    const int clusters = static_cast<int>(rng.UniformInt(6, 14));
    for (int c = 0; c < clusters; ++c) {
      const int64_t cx = rng.UniformInt(8, 119);
      const int64_t cy = rng.UniformInt(8, 119);
      for (int i = 0; i < 30; ++i) {
        points.Insert(Index{cx + rng.UniformInt(-6, 6),
                            cy + rng.UniformInt(-6, 6)});
      }
    }
    Carver carver(CarveConfig{});
    CarveStats serial_stats;
    CarveStats parallel_stats;
    const CarvedSubset serial = carver.Carve(points, &serial_stats);
    const CarvedSubset parallel =
        carver.Carve(points, executor, &parallel_stats);
    EXPECT_EQ(serial_stats.num_cells, parallel_stats.num_cells);
    EXPECT_EQ(serial_stats.merge_operations, parallel_stats.merge_operations)
        << "trial=" << trial;
    EXPECT_EQ(serial_stats.final_hulls, parallel_stats.final_hulls);
    ASSERT_EQ(serial.num_hulls(), parallel.num_hulls()) << "trial=" << trial;
    EXPECT_EQ(serial.Rasterize().ToSortedLinearIds(),
              parallel.Rasterize().ToSortedLinearIds())
        << "trial=" << trial;
  }
}

TEST(CarverTest, ThreeDimensionalCarving) {
  const Shape shape{32, 32, 32};
  IndexSet points(shape);
  for (int64_t x = 4; x <= 12; ++x) {
    for (int64_t y = 4; y <= 12; ++y) {
      for (int64_t z = 4; z <= 12; ++z) {
        points.Insert(Index{x, y, z});
      }
    }
  }
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  EXPECT_EQ(carved.Rasterize().size(), points.size());
}

TEST(CarverTest, ThreeDimensionalCarveMatchesGoldenDigest) {
  // Pins the exact output of a small 3-D carve: every hull vertex bit and
  // every rasterised id. Any change to hull building, the CLOSE scan or
  // rasterisation that moves a single vertex or point changes the digest.
  Rng rng(41);
  const Shape shape{64, 64, 64};
  IndexSet points(shape);
  for (int c = 0; c < 9; ++c) {
    const int64_t cx = rng.UniformInt(8, 55);
    const int64_t cy = rng.UniformInt(8, 55);
    const int64_t cz = rng.UniformInt(8, 55);
    for (int i = 0; i < 120; ++i) {
      points.Insert(Index{cx + rng.UniformInt(-8, 8),
                          cy + rng.UniformInt(-8, 8),
                          cz + rng.UniformInt(-8, 8)});
    }
  }
  // A slanted slab of lattice points on the plane z == x + y + 30.
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      points.Insert(Index{x, y + 40, x + y + 30});
    }
  }
  CarveConfig config;
  config.cell_size = 8;
  config.center_d_thresh = 16.0;
  config.boundary_d_thresh = 6.0;
  const Carver carver(config);
  CarveStats stats;
  const CarvedSubset carved = carver.Carve(points, &stats);
  const IndexSet subset = carved.Rasterize();
  EXPECT_EQ(stats.num_cells, 162);
  EXPECT_EQ(stats.merge_operations, 151);
  EXPECT_EQ(stats.final_hulls, 11);
  EXPECT_EQ(subset.size(), 38817u);
  EXPECT_EQ(CarveDigest(carved, subset), 0x2c3dcce773d4803fULL);

  CampaignExecutor executor(4);
  const CarvedSubset parallel = carver.Carve(points, executor);
  EXPECT_EQ(CarveDigest(parallel, Carver::Rasterize(parallel, executor)),
            CarveDigest(carved, subset));
}

TEST(CarverTest, CellSizeControlsInitialHulls) {
  const Shape shape{64, 64};
  const IndexSet points = FilledRect(shape, 0, 0, 31, 31);
  CarveConfig coarse;
  coarse.cell_size = 32;
  CarveStats coarse_stats;
  Carver(coarse).Carve(points, &coarse_stats);
  CarveConfig fine;
  fine.cell_size = 8;
  CarveStats fine_stats;
  Carver(fine).Carve(points, &fine_stats);
  EXPECT_EQ(coarse_stats.initial_hulls, 1);
  EXPECT_EQ(fine_stats.initial_hulls, 16);
}

TEST(CarverTest, ThresholdZeroDisablesMerging) {
  const Shape shape{64, 64};
  const IndexSet points = FilledRect(shape, 0, 0, 31, 31);
  CarveConfig config;
  config.cell_size = 16;
  config.center_d_thresh = 0.0;
  config.boundary_d_thresh = 0.0;
  CarveStats stats;
  const CarvedSubset carved = Carver(config).Carve(points, &stats);
  // Adjacent cell hulls have vertex distance 1 > 0: no merges.
  EXPECT_EQ(stats.merge_operations, 0);
  EXPECT_EQ(carved.num_hulls(), 4);
}

// ---------------------------------------------------------- CarvedSubset --

TEST(CarvedSubsetTest, ContainsMatchesRasterize) {
  const Shape shape{48, 48};
  IndexSet points = FilledRect(shape, 2, 2, 10, 10);
  points.Union(FilledRect(shape, 30, 30, 40, 40));
  const CarvedSubset carved = Carver(CarveConfig{}).Carve(points);
  const IndexSet raster = carved.Rasterize();
  shape.ForEachIndex([&](const Index& index) {
    EXPECT_EQ(carved.Contains(index), raster.Contains(index)) << index;
  });
}

// ---------------------------------------------------------- SimpleConvex --

TEST(SimpleConvexTest, SingleHullCoversEverything) {
  const Shape shape{128, 128};
  IndexSet points = FilledRect(shape, 0, 0, 15, 15);
  points.Union(FilledRect(shape, 100, 100, 115, 115));
  const CarvedSubset carved = SimpleConvexCarve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  const IndexSet raster = carved.Rasterize();
  // SC bridges the gap -> worse precision than Kondo's merge-based carver.
  EXPECT_TRUE(raster.Contains(Index{50, 50}));
  EXPECT_GT(raster.size(), points.size() * 2);
}

TEST(SimpleConvexTest, EmptyInput) {
  const CarvedSubset carved = SimpleConvexCarve(IndexSet(Shape{8, 8}));
  EXPECT_EQ(carved.num_hulls(), 0);
}

}  // namespace
}  // namespace kondo
