// Cross-module property tests: randomized invariants that tie the geometry,
// carving, packaging, and audit layers together.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/kdf_file.h"
#include "audit/event_log.h"
#include "audit/offset_mapper.h"
#include "carve/carver.h"
#include "common/rng.h"
#include "core/kondo.h"
#include "geom/hull.h"
#include "pack/pack_reader.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

// ------------------------------------------------------- hull geometry --

class HullRankProperty : public ::testing::TestWithParam<int> {};

TEST_P(HullRankProperty, ConvexCombinationsOfVerticesAreInside) {
  const int rank = GetParam();
  Rng rng(400 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 25; ++i) {
      Vec3 p;
      for (int d = 0; d < rank; ++d) {
        p[d] = rng.UniformDouble(0, 30);
      }
      points.push_back(p);
    }
    const Hull hull = Hull::Build(points, rank);
    // Random convex combinations of the hull's vertices must lie inside.
    for (int q = 0; q < 20; ++q) {
      std::vector<double> weights(hull.vertices().size());
      double total = 0.0;
      for (double& w : weights) {
        w = rng.UniformDouble(0, 1);
        total += w;
      }
      Vec3 point;
      for (size_t i = 0; i < weights.size(); ++i) {
        point += hull.vertices()[i] * (weights[i] / total);
      }
      EXPECT_TRUE(hull.Contains(point, 1e-6))
          << "rank=" << rank << " trial=" << trial;
    }
  }
}

TEST_P(HullRankProperty, SeparatedPointsAreOutside) {
  const int rank = GetParam();
  Rng rng(500 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 25; ++i) {
      Vec3 p;
      for (int d = 0; d < rank; ++d) {
        p[d] = rng.UniformDouble(0, 30);
      }
      points.push_back(p);
    }
    const Hull hull = Hull::Build(points, rank);
    // A point strictly beyond the maximum support in a random direction is
    // provably outside the hull.
    for (int q = 0; q < 20; ++q) {
      Vec3 direction;
      for (int d = 0; d < rank; ++d) {
        direction[d] = rng.Gaussian();
      }
      if (Norm(direction) < 1e-9) {
        continue;
      }
      direction = Normalized(direction);
      double max_support = -1e300;
      for (const Vec3& p : points) {
        max_support = std::max(max_support, Dot(p, direction));
      }
      const Vec3 outside =
          hull.centroid() +
          direction * (max_support - Dot(hull.centroid(), direction) + 1.0);
      EXPECT_FALSE(hull.Contains(outside, 1e-6))
          << "rank=" << rank << " trial=" << trial;
    }
  }
}

TEST_P(HullRankProperty, HullOfVerticesHasSameMembership) {
  const int rank = GetParam();
  Rng rng(600 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 30; ++i) {
      Vec3 p;
      for (int d = 0; d < rank; ++d) {
        p[d] = static_cast<double>(rng.UniformInt(0, 20));
      }
      points.push_back(p);
    }
    const Hull original = Hull::Build(points, rank);
    const Hull rebuilt = Hull::Build(original.vertices(), rank);
    for (int q = 0; q < 50; ++q) {
      Vec3 probe;
      for (int d = 0; d < rank; ++d) {
        probe[d] = rng.UniformDouble(-2, 22);
      }
      EXPECT_EQ(original.Contains(probe, 1e-6), rebuilt.Contains(probe, 1e-6))
          << "rank=" << rank << " probe=" << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, HullRankProperty, ::testing::Values(1, 2, 3));

// ----------------------------------------------------------- carving --

TEST(CarveProperty, DeterministicForEqualInput) {
  Rng rng(7);
  const Shape shape{64, 64};
  IndexSet points(shape);
  for (int i = 0; i < 200; ++i) {
    points.Insert(Index{rng.UniformInt(0, 63), rng.UniformInt(0, 63)});
  }
  Carver carver(CarveConfig{});
  const IndexSet a = carver.Carve(points).Rasterize();
  const IndexSet b = carver.Carve(points).Rasterize();
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(a.IsSubsetOf(b));
}

TEST(CarveProperty, RasterizeIsIdempotentUnderRecarving) {
  // Carving an already-carved raster must not lose any of its points
  // (hulls contain their inputs; re-carving can only preserve or connect).
  Rng rng(8);
  const Shape shape{64, 64};
  IndexSet points(shape);
  for (int i = 0; i < 150; ++i) {
    points.Insert(Index{rng.UniformInt(0, 63), rng.UniformInt(0, 63)});
  }
  Carver carver(CarveConfig{});
  const IndexSet first = carver.Carve(points).Rasterize();
  const IndexSet second = carver.Carve(first).Rasterize();
  EXPECT_TRUE(first.IsSubsetOf(second));
}

TEST(CarveProperty, MoreMergingNeverShrinksCoverage) {
  // Raising both thresholds strictly relaxes CLOSE, so coverage (and hence
  // recall) is monotone non-decreasing.
  Rng rng(9);
  const Shape shape{96, 96};
  IndexSet points(shape);
  for (int cluster = 0; cluster < 5; ++cluster) {
    const int64_t cx = rng.UniformInt(8, 88);
    const int64_t cy = rng.UniformInt(8, 88);
    for (int i = 0; i < 30; ++i) {
      points.Insert(
          Index{cx + rng.UniformInt(-6, 6), cy + rng.UniformInt(-6, 6)});
    }
  }
  size_t previous = 0;
  for (double scale : {0.5, 1.0, 2.0, 4.0}) {
    CarveConfig config;
    config.center_d_thresh = 20.0 * scale;
    config.boundary_d_thresh = 10.0 * scale;
    const size_t covered =
        Carver(config).Carve(points).Rasterize().size();
    EXPECT_GE(covered, previous) << "scale=" << scale;
    previous = covered;
  }
}

// ------------------------------------------------- packaging round trip --

TEST(PackagingProperty, PipelineSubsetPackagesAndReplaysLosslessly) {
  Rng rng(10);
  for (const std::string& name : {std::string("CS"), std::string("LDC")}) {
    const std::unique_ptr<Program> program = CreateProgram(name, 64);
    DataArray array(program->data_shape(), DType::kFloat64);
    array.FillPattern(rng.NextU64());

    KondoConfig config;
    config.fuzz.max_iter = 500;
    config.rng_seed = rng.NextU64();
    const KondoResult result = KondoPipeline(config).Run(*program);
    const DebloatedArray debloated =
        PackageDebloated(array, result.approx);

    // Every approx member round-trips with its exact value; every
    // non-member raises data-missing.
    result.approx.ForEach([&](const Index& index) {
      StatusOr<double> value = debloated.At(index);
      ASSERT_TRUE(value.ok());
      EXPECT_DOUBLE_EQ(*value, array.At(index));
    });
    int missing_checked = 0;
    program->data_shape().ForEachIndex([&](const Index& index) {
      if (!result.approx.Contains(index) && missing_checked < 500) {
        ++missing_checked;
        EXPECT_EQ(debloated.At(index).status().code(),
                  StatusCode::kDataMissing);
      }
    });
  }
}

// ------------------------------------------- audit event-stream oracle --

TEST(AuditProperty, RandomEventStreamsMatchByteOracle) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    RowMajorLayout layout(Shape{16, 16}, DType::kFloat64);
    const int64_t payload = layout.PayloadBytes();
    EventLog log;
    std::vector<bool> touched(static_cast<size_t>(payload), false);
    for (int e = 0; e < 60; ++e) {
      Event event;
      event.id = EventId{rng.UniformInt(1, 3), 1};
      event.type = EventType::kPread;
      event.offset = rng.UniformInt(0, payload - 1);
      event.size = rng.UniformInt(1, 48);
      log.Record(event);
      for (int64_t b = event.offset;
           b < std::min(event.offset + event.size, payload); ++b) {
        touched[static_cast<size_t>(b)] = true;
      }
    }
    // The mapper's recovered indices must equal the per-byte oracle.
    OffsetMapper mapper(&layout, /*payload_offset=*/0);
    const IndexSet indices = mapper.IndicesForRanges(log.AccessedRanges(1));
    layout.shape().ForEachIndex([&](const Index& index) {
      const Interval range = layout.ByteRangeOf(index);
      bool oracle = false;
      for (int64_t b = range.begin; b < std::min(range.end, payload); ++b) {
        oracle = oracle || touched[static_cast<size_t>(b)];
      }
      EXPECT_EQ(indices.Contains(index), oracle)
          << index << " trial=" << trial;
    });
  }
}

// -------------------------------------------------- corrupt-input fuzz --

TEST(RobustnessProperty, KdfReaderSurvivesRandomGarbage) {
  Rng rng(12);
  const std::string path = ::testing::TempDir() + "/garbage_fuzz.kdf";
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t size = rng.UniformInt(0, 200);
    std::string bytes;
    if (rng.Bernoulli(0.5)) {
      bytes = "KDF1";  // Valid magic, garbage rest.
    }
    for (int64_t i = static_cast<int64_t>(bytes.size()); i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    std::ofstream(path, std::ios::binary) << bytes;
    // Must return an error status or a safely-readable reader; never crash.
    StatusOr<KdfReader> reader = KdfReader::Open(path);
    if (reader.ok()) {
      (void)reader->ReadElement(Index{0, 0});
    }
  }
}

TEST(RobustnessProperty, DebloatedReaderSurvivesRandomGarbage) {
  Rng rng(13);
  const std::string path = ::testing::TempDir() + "/garbage_fuzz.kdp";
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t size = rng.UniformInt(0, 200);
    std::string bytes;
    if (rng.Bernoulli(0.5)) {
      bytes = "KDP1";
    }
    for (int64_t i = static_cast<int64_t>(bytes.size()); i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    if (rng.Bernoulli(0.5)) {
      bytes += "KDPE";  // A plausible trailer magic gets past the first check.
    }
    std::ofstream(path, std::ios::binary) << bytes;
    // Must return an error status or a safely-readable package; never crash.
    StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
    if (reader.ok() && (*reader)->shape().NumElements() > 0) {
      std::vector<uint8_t> present;
      std::vector<double> values;
      (void)(*reader)->ReadRange(0, 1, &present, &values);
    }
  }
}

// ------------------------------------------------ end-to-end soundness --

TEST(SoundnessProperty, ApproxAlwaysContainsEveryDiscoveredOffset) {
  // The carved subset must never drop an offset the fuzzer actually
  // observed — observed offsets are certain members of I_Θ.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::unique_ptr<Program> program = CreateProgram("CS1", 96);
    KondoConfig config;
    config.fuzz.max_iter = 400;
    config.rng_seed = seed;
    const KondoResult result = KondoPipeline(config).Run(*program);
    EXPECT_TRUE(result.fuzz.discovered.IsSubsetOf(result.approx))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace kondo
