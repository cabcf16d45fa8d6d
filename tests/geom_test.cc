#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geom/convex2d.h"
#include "geom/convex3d.h"
#include "geom/hull.h"
#include "geom/vec.h"

namespace kondo {
namespace {

// ------------------------------------------------------------------ Vec3 --

TEST(Vec3Test, Arithmetic) {
  const Vec3 a(1, 2, 3);
  const Vec3 b(4, 5, 6);
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_EQ(Cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(Norm(Vec3(3, 4, 0)), 5.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(27.0));
}

TEST(Vec3Test, FromIndex) {
  EXPECT_EQ(Vec3::FromIndex(Index{3, 4}), Vec3(3, 4, 0));
  EXPECT_EQ(Vec3::FromIndex(Index{1, 2, 3}), Vec3(1, 2, 3));
  EXPECT_EQ(Vec3::FromIndex(Index{9}), Vec3(9, 0, 0));
}

TEST(Vec3Test, NormalizedHandlesZero) {
  EXPECT_EQ(Normalized(Vec3(0, 0, 0)), Vec3(0, 0, 0));
  EXPECT_NEAR(Norm(Normalized(Vec3(2, 3, 6))), 1.0, 1e-12);
}

// ----------------------------------------------------------- 2-D hulls --

TEST(ConvexHull2DTest, SquareHullIsFourCorners) {
  std::vector<Vec2> points;
  for (int x = 0; x <= 4; ++x) {
    for (int y = 0; y <= 4; ++y) {
      points.push_back(Vec2{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const std::vector<Vec2> hull = ConvexHull2D(points);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_NEAR(ConvexPolygonArea(hull), 16.0, 1e-9);
}

TEST(ConvexHull2DTest, SinglePoint) {
  const std::vector<Vec2> hull = ConvexHull2D({Vec2{2, 3}});
  ASSERT_EQ(hull.size(), 1u);
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{2, 3}, 1e-9));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{2, 4}, 1e-9));
}

TEST(ConvexHull2DTest, DuplicatePointsCollapse) {
  const std::vector<Vec2> hull =
      ConvexHull2D({Vec2{1, 1}, Vec2{1, 1}, Vec2{1, 1}});
  EXPECT_EQ(hull.size(), 1u);
}

TEST(ConvexHull2DTest, CollinearPointsBecomeSegment) {
  const std::vector<Vec2> hull =
      ConvexHull2D({Vec2{0, 0}, Vec2{1, 1}, Vec2{2, 2}, Vec2{3, 3}});
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{1.5, 1.5}, 1e-9));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{1.5, 1.6}, 1e-3));
}

TEST(ConvexHull2DTest, InteriorCollinearBoundaryPointsDropped) {
  const std::vector<Vec2> hull = ConvexHull2D(
      {Vec2{0, 0}, Vec2{2, 0}, Vec2{4, 0}, Vec2{4, 4}, Vec2{0, 4}});
  EXPECT_EQ(hull.size(), 4u);  // (2,0) is on an edge, not a vertex.
}

TEST(PointInConvexPolygonTest, BoundaryIsInside) {
  const std::vector<Vec2> hull =
      ConvexHull2D({Vec2{0, 0}, Vec2{4, 0}, Vec2{4, 4}, Vec2{0, 4}});
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{2, 0}, 1e-9));
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{0, 0}, 1e-9));
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{2, 2}, 1e-9));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{2, -0.01}, 1e-6));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{4.01, 2}, 1e-6));
}

TEST(ConvexHull2DTest, HullContainsAllInputsProperty) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> points;
    for (int i = 0; i < 50; ++i) {
      points.push_back(Vec2{rng.UniformDouble(-10, 10),
                            rng.UniformDouble(-10, 10)});
    }
    const std::vector<Vec2> hull = ConvexHull2D(points);
    for (const Vec2& p : points) {
      EXPECT_TRUE(PointInConvexPolygon(hull, p, 1e-7)) << trial;
    }
  }
}

// ----------------------------------------------------------- 3-D hulls --

std::vector<Vec3> UnitCubeCorners() {
  std::vector<Vec3> corners;
  for (int x = 0; x <= 1; ++x) {
    for (int y = 0; y <= 1; ++y) {
      for (int z = 0; z <= 1; ++z) {
        corners.push_back(Vec3(x, y, z));
      }
    }
  }
  return corners;
}

TEST(ConvexHull3DTest, TetrahedronHasFourFacets) {
  const std::vector<Vec3> points = {Vec3(0, 0, 0), Vec3(1, 0, 0),
                                    Vec3(0, 1, 0), Vec3(0, 0, 1)};
  const Hull3D hull = ConvexHull3D(points);
  EXPECT_EQ(hull.facets.size(), 4u);
  EXPECT_EQ(hull.vertex_indices.size(), 4u);
  EXPECT_NEAR(Hull3DVolume(hull, points), 1.0 / 6.0, 1e-9);
}

TEST(ConvexHull3DTest, CubeHull) {
  const std::vector<Vec3> points = UnitCubeCorners();
  const Hull3D hull = ConvexHull3D(points);
  EXPECT_EQ(hull.vertex_indices.size(), 8u);
  EXPECT_NEAR(Hull3DVolume(hull, points), 1.0, 1e-9);
  EXPECT_TRUE(PointInHull3D(hull, Vec3(0.5, 0.5, 0.5), 1e-9));
  EXPECT_TRUE(PointInHull3D(hull, Vec3(0, 0.5, 0.5), 1e-9));  // Face point.
  EXPECT_FALSE(PointInHull3D(hull, Vec3(1.01, 0.5, 0.5), 1e-6));
}

TEST(ConvexHull3DTest, InteriorPointsNotVertices) {
  std::vector<Vec3> points = UnitCubeCorners();
  points.push_back(Vec3(0.5, 0.5, 0.5));
  points.push_back(Vec3(0.25, 0.25, 0.25));
  const Hull3D hull = ConvexHull3D(points);
  EXPECT_EQ(hull.vertex_indices.size(), 8u);
}

TEST(ConvexHull3DTest, HullContainsAllInputsProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 60; ++i) {
      points.push_back(Vec3(rng.UniformDouble(-5, 5),
                            rng.UniformDouble(-5, 5),
                            rng.UniformDouble(-5, 5)));
    }
    const Hull3D hull = ConvexHull3D(points);
    for (const Vec3& p : points) {
      EXPECT_TRUE(PointInHull3D(hull, p, 1e-6)) << trial;
    }
    // Outward orientation: far-away points are outside.
    EXPECT_FALSE(PointInHull3D(hull, Vec3(100, 100, 100), 1e-6));
  }
}

TEST(ConvexHull3DTest, FacetsAreConsistentlyOutward) {
  const std::vector<Vec3> points = UnitCubeCorners();
  const Hull3D hull = ConvexHull3D(points);
  const Vec3 center(0.5, 0.5, 0.5);
  for (const HullFacet& facet : hull.facets) {
    EXPECT_LT(facet.SignedDistance(center), 0.0);
  }
}

// ----------------------------------------------------- Hull (any rank) --

TEST(HullTest, SinglePointHull) {
  const Hull hull = Hull::Build({Vec3(3, 4, 0)}, 2);
  EXPECT_EQ(hull.affine_rank(), 0);
  EXPECT_TRUE(hull.Contains(Vec3(3, 4, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(3, 5, 0)));
  EXPECT_DOUBLE_EQ(hull.Measure(), 0.0);
}

TEST(HullTest, SegmentHull) {
  const Hull hull = Hull::Build({Vec3(0, 0, 0), Vec3(4, 4, 0),
                                 Vec3(2, 2, 0)},
                                2);
  EXPECT_EQ(hull.affine_rank(), 1);
  EXPECT_EQ(hull.vertices().size(), 2u);
  EXPECT_TRUE(hull.Contains(Vec3(1, 1, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(1, 2, 0)));
  EXPECT_NEAR(hull.Measure(), std::sqrt(32.0), 1e-9);
}

TEST(HullTest, PolygonHull) {
  const Hull hull = Hull::Build(
      {Vec3(0, 0, 0), Vec3(4, 0, 0), Vec3(4, 4, 0), Vec3(0, 4, 0),
       Vec3(2, 2, 0)},
      2);
  EXPECT_EQ(hull.affine_rank(), 2);
  EXPECT_EQ(hull.vertices().size(), 4u);
  EXPECT_TRUE(hull.Contains(Vec3(2, 2, 0)));
  EXPECT_TRUE(hull.Contains(Vec3(4, 4, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(5, 2, 0)));
  EXPECT_NEAR(hull.Measure(), 16.0, 1e-9);
  EXPECT_NEAR(Distance(hull.centroid(), Vec3(2, 2, 0)), 0.0, 1e-9);
}

TEST(HullTest, FullRank3DHull) {
  std::vector<Vec3> points = UnitCubeCorners();
  for (Vec3& p : points) {
    p = p * 4.0;
  }
  const Hull hull = Hull::Build(points, 3);
  EXPECT_EQ(hull.affine_rank(), 3);
  EXPECT_TRUE(hull.Contains(Vec3(2, 2, 2)));
  EXPECT_FALSE(hull.Contains(Vec3(2, 2, 4.1)));
  EXPECT_NEAR(hull.Measure(), 64.0, 1e-6);
}

TEST(HullTest, PlanarPointsIn3DAreRankTwo) {
  // A plane z = 2 inside a rank-3 ambient space.
  std::vector<Vec3> points;
  for (int x = 0; x <= 3; ++x) {
    for (int y = 0; y <= 3; ++y) {
      points.push_back(Vec3(x, y, 2));
    }
  }
  const Hull hull = Hull::Build(points, 3);
  EXPECT_EQ(hull.affine_rank(), 2);
  EXPECT_TRUE(hull.Contains(Vec3(1.5, 1.5, 2)));
  EXPECT_FALSE(hull.Contains(Vec3(1.5, 1.5, 2.5)));
}

TEST(HullTest, CollinearPointsIn3DAreRankOne) {
  const Hull hull = Hull::Build(
      {Vec3(0, 0, 0), Vec3(1, 2, 3), Vec3(2, 4, 6), Vec3(3, 6, 9)}, 3);
  EXPECT_EQ(hull.affine_rank(), 1);
  EXPECT_TRUE(hull.Contains(Vec3(1.5, 3, 4.5)));
  EXPECT_FALSE(hull.Contains(Vec3(1.5, 3, 5)));
}

TEST(HullTest, RankOneAmbient) {
  const Hull hull = Hull::Build({Vec3(2, 0, 0), Vec3(9, 0, 0)}, 1);
  EXPECT_EQ(hull.affine_rank(), 1);
  EXPECT_TRUE(hull.Contains(Vec3(5, 0, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(1, 0, 0)));
}

TEST(HullTest, FromIndices) {
  const Hull hull =
      Hull::FromIndices({Index{0, 0}, Index{4, 0}, Index{0, 4}}, 2);
  EXPECT_TRUE(hull.ContainsIndex(Index{1, 1}));
  EXPECT_FALSE(hull.ContainsIndex(Index{3, 3}));
}

class HullContainmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HullContainmentPropertyTest, HullContainsItsInputPoints) {
  const int rank = GetParam();
  Rng rng(100 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<Vec3> points;
    const int count = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < count; ++i) {
      Vec3 p;
      for (int d = 0; d < rank; ++d) {
        p[d] = static_cast<double>(rng.UniformInt(0, 20));
      }
      points.push_back(p);
    }
    const Hull hull = Hull::Build(points, rank);
    for (const Vec3& p : points) {
      EXPECT_TRUE(hull.Contains(p, 1e-6))
          << "rank=" << rank << " trial=" << trial << " p=" << p;
    }
  }
}

TEST_P(HullContainmentPropertyTest, MergedHullContainsBothVertexSets) {
  const int rank = GetParam();
  Rng rng(200 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec3> a_points;
    std::vector<Vec3> b_points;
    for (int i = 0; i < 15; ++i) {
      Vec3 pa, pb;
      for (int d = 0; d < rank; ++d) {
        pa[d] = static_cast<double>(rng.UniformInt(0, 10));
        pb[d] = static_cast<double>(rng.UniformInt(8, 20));
      }
      a_points.push_back(pa);
      b_points.push_back(pb);
    }
    const Hull a = Hull::Build(a_points, rank);
    const Hull b = Hull::Build(b_points, rank);
    std::vector<Vec3> merged_points = a.vertices();
    merged_points.insert(merged_points.end(), b.vertices().begin(),
                         b.vertices().end());
    const Hull merged = Hull::Build(merged_points, rank);
    // The merge of two hulls contains every original point — the paper's
    // claim that merging vertex sets equals hulling the underlying points.
    for (const Vec3& p : a_points) {
      EXPECT_TRUE(merged.Contains(p, 1e-6)) << "rank=" << rank;
    }
    for (const Vec3& p : b_points) {
      EXPECT_TRUE(merged.Contains(p, 1e-6)) << "rank=" << rank;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, HullContainmentPropertyTest,
                         ::testing::Values(1, 2, 3));

TEST(HullTest, CentroidAndVertexDistance) {
  const Hull a = Hull::Build({Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 2, 0),
                              Vec3(2, 2, 0)},
                             2);
  const Hull b = Hull::Build({Vec3(10, 0, 0), Vec3(12, 0, 0),
                              Vec3(10, 2, 0), Vec3(12, 2, 0)},
                             2);
  EXPECT_DOUBLE_EQ(a.CentroidDistance(b), 10.0);
  EXPECT_DOUBLE_EQ(a.MinVertexDistance(b), 8.0);
  EXPECT_DOUBLE_EQ(a.MinVertexDistance(a), 0.0);
}

TEST(HullTest, RasterizeSquare) {
  const Hull hull = Hull::Build(
      {Vec3(1, 1, 0), Vec3(3, 1, 0), Vec3(1, 3, 0), Vec3(3, 3, 0)}, 2);
  IndexSet raster(Shape{8, 8});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 9u);  // 3x3 integer points.
  EXPECT_TRUE(raster.Contains(Index{2, 2}));
  EXPECT_TRUE(raster.Contains(Index{1, 3}));
  EXPECT_FALSE(raster.Contains(Index{0, 0}));
}

TEST(HullTest, RasterizeClipsToShape) {
  const Hull hull = Hull::Build(
      {Vec3(-5, -5, 0), Vec3(20, -5, 0), Vec3(-5, 20, 0), Vec3(20, 20, 0)},
      2);
  IndexSet raster(Shape{4, 4});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 16u);
}

TEST(HullTest, RasterizeSegment) {
  const Hull hull = Hull::Build({Vec3(0, 0, 0), Vec3(3, 3, 0)}, 2);
  IndexSet raster(Shape{8, 8});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 4u);  // (0,0) (1,1) (2,2) (3,3).
}

TEST(HullTest, Rasterize3DBox) {
  std::vector<Vec3> corners;
  for (int x : {0, 2}) {
    for (int y : {0, 2}) {
      for (int z : {0, 2}) {
        corners.push_back(Vec3(x, y, z));
      }
    }
  }
  const Hull hull = Hull::Build(corners, 3);
  IndexSet raster(Shape{4, 4, 4});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 27u);
  EXPECT_EQ(hull.CountIntegerPoints(Shape{4, 4, 4}), 27);
}

TEST(HullTest, RasterizeContainsIntegerInputsProperty) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Index> indices;
    IndexSet raster(Shape{24, 24});
    for (int i = 0; i < 20; ++i) {
      indices.push_back(Index{rng.UniformInt(0, 23), rng.UniformInt(0, 23)});
    }
    const Hull hull = Hull::FromIndices(indices, 2);
    hull.RasterizeInto(&raster);
    for (const Index& index : indices) {
      EXPECT_TRUE(raster.Contains(index)) << index << " trial=" << trial;
    }
  }
}

// Rasterisation must give exactly the indices Contains accepts, whichever
// path (z-runs for full-rank 3-D hulls, point scan otherwise) produces them.
std::vector<int64_t> ContainsScan(const Hull& hull, const Shape& shape) {
  std::vector<int64_t> ids;
  shape.ForEachIndex([&](const Index& index) {
    if (hull.ContainsIndex(index)) {
      ids.push_back(shape.Linearize(index));
    }
  });
  return ids;
}

/// `affine_rank`, when not -1, is the rank the case is meant to exercise.
void ExpectRasterMatchesContainsScan(const Hull& hull, const Shape& shape,
                                     const std::string& label,
                                     int affine_rank = -1) {
  if (affine_rank >= 0) {
    EXPECT_EQ(hull.affine_rank(), affine_rank) << label;
  }
  IndexSet raster(shape);
  hull.RasterizeInto(&raster);
  const std::vector<int64_t> expected = ContainsScan(hull, shape);
  EXPECT_EQ(raster.ToSortedLinearIds(), expected) << label;
  EXPECT_EQ(hull.CountIntegerPoints(shape),
            static_cast<int64_t>(expected.size()))
      << label;
}

TEST(HullRasterTest, RandomLatticeHullsMatchContainsScan) {
  // Integer vertices put lattice points exactly on facets; coordinates
  // range past the shape on every side, so many hulls are clipped.
  Rng rng(61);
  const Shape shape{20, 20, 20};
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Vec3> points;
    const int count = static_cast<int>(rng.UniformInt(4, 40));
    const int64_t cx = rng.UniformInt(-4, 23);
    const int64_t cy = rng.UniformInt(-4, 23);
    const int64_t cz = rng.UniformInt(-4, 23);
    const int64_t r = rng.UniformInt(1, 12);
    for (int i = 0; i < count; ++i) {
      points.push_back(Vec3(static_cast<double>(cx + rng.UniformInt(-r, r)),
                            static_cast<double>(cy + rng.UniformInt(-r, r)),
                            static_cast<double>(cz + rng.UniformInt(-r, r))));
    }
    ExpectRasterMatchesContainsScan(Hull::Build(points, 3), shape,
                                    "trial=" + std::to_string(trial));
  }
}

TEST(HullRasterTest, RandomRealHullsMatchContainsScan) {
  Rng rng(67);
  const Shape shape{16, 16, 16};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 12; ++i) {
      points.push_back(Vec3(rng.UniformDouble(-2.0, 17.0),
                            rng.UniformDouble(-2.0, 17.0),
                            rng.UniformDouble(-2.0, 17.0)));
    }
    ExpectRasterMatchesContainsScan(Hull::Build(points, 3), shape,
                                    "trial=" + std::to_string(trial));
  }
}

TEST(HullRasterTest, ThinSlabsMatchContainsScan) {
  const Shape shape{24, 24, 24};
  // Two lattice layers thick, axis-aligned and slanted (x + 2y - z in
  // [10, 11]): most lines meet the slab in one or two points.
  std::vector<Vec3> flat;
  std::vector<Vec3> slanted;
  for (int64_t x = 0; x < 24; x += 3) {
    for (int64_t y = 0; y < 24; y += 3) {
      for (int64_t dz = 0; dz <= 1; ++dz) {
        flat.push_back(Vec3(static_cast<double>(x), static_cast<double>(y),
                            static_cast<double>(7 + dz)));
        slanted.push_back(Vec3(static_cast<double>(x),
                               static_cast<double>(y),
                               static_cast<double>(x + 2 * y - 10 - dz)));
      }
    }
  }
  ExpectRasterMatchesContainsScan(Hull::Build(flat, 3), shape, "flat", 3);
  ExpectRasterMatchesContainsScan(Hull::Build(slanted, 3), shape, "slanted", 3);
  // A sliver tetrahedron: lines graze it in single points.
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(0, 0, 0), Vec3(20, 1, 3), Vec3(3, 20, 1),
                   Vec3(8, 7, 5.5)},
                  3),
      shape, "sliver", 3);
}

TEST(HullRasterTest, LatticePolytopesMatchContainsScan) {
  const Shape shape{12, 12, 12};
  // Every facet of these passes through many lattice points.
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(0, 0, 0), Vec3(9, 0, 0), Vec3(0, 9, 0),
                   Vec3(0, 0, 9)},
                  3),
      shape, "corner tetrahedron", 3);
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(5, 5, 0), Vec3(10, 5, 5), Vec3(5, 10, 5),
                   Vec3(0, 5, 5), Vec3(5, 0, 5), Vec3(5, 5, 10)},
                  3),
      shape, "octahedron", 3);
  // Larger than the shape on every side.
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(-30, -30, -30), Vec3(40, -30, -30),
                   Vec3(-30, 40, -30), Vec3(-30, -30, 40)},
                  3),
      shape, "clipped", 3);
  // Entirely outside the shape.
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(20, 20, 20), Vec3(25, 20, 20), Vec3(20, 25, 20),
                   Vec3(20, 20, 25)},
                  3),
      shape, "outside", 3);
}

TEST(HullRasterTest, DegenerateAffineRanksMatchContainsScan) {
  const Shape shape{12, 12, 12};
  ExpectRasterMatchesContainsScan(Hull::Build({Vec3(4, 5, 6)}, 3), shape,
                                  "point", 0);
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(1, 2, 3), Vec3(9, 6, 11)}, 3), shape, "segment", 1);
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(2, 2, 0), Vec3(2, 2, 11)}, 3), shape, "z segment", 1);
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(0, 0, 1), Vec3(10, 0, 11), Vec3(0, 10, 11),
                   Vec3(4, 4, 9)},
                  3),
      shape, "plane z = x + y + 1", 2);
  ExpectRasterMatchesContainsScan(
      Hull::Build({Vec3(0, 3, 0), Vec3(11, 3, 0), Vec3(0, 3, 11),
                   Vec3(11, 3, 11)},
                  3),
      shape, "plane y = 3", 2);
}

TEST(HullTest, IntegerBounds) {
  const Hull hull = Hull::Build({Vec3(1.2, 2.8, 0), Vec3(5.9, 7.1, 0)}, 2);
  int64_t lo[3];
  int64_t hi[3];
  hull.IntegerBounds(lo, hi);
  EXPECT_EQ(lo[0], 1);
  EXPECT_EQ(hi[0], 6);
  EXPECT_EQ(lo[1], 2);
  EXPECT_EQ(hi[1], 8);
}

}  // namespace
}  // namespace kondo
