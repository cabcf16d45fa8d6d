// Larger randomized stress tests: data-intensive shapes the micro tests
// don't reach (tens of thousands of events/intervals/points). Budgeted to
// stay under ~1 s each on a laptop core.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "audit/event_log.h"
#include "carve/carver.h"
#include "common/interval_set.h"
#include "common/rng.h"
#include "geom/hull.h"

namespace kondo {
namespace {

TEST(StressTest, EventLogHundredThousandEvents) {
  EventLog log;
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) {
    Event event;
    event.id = EventId{rng.UniformInt(1, 4), rng.UniformInt(1, 2)};
    event.type = EventType::kPread;
    event.offset = rng.UniformInt(0, 1 << 22);
    event.size = rng.UniformInt(1, 256);
    log.Record(event);
  }
  EXPECT_EQ(log.NumEvents(), 100000);
  // Derived state stays coherent.
  for (int64_t file = 1; file <= 2; ++file) {
    int64_t per_process_total = 0;
    IntervalSet merged;
    for (int64_t pid = 1; pid <= 4; ++pid) {
      const IntervalSet ranges = log.AccessedRangesForProcess(pid, file);
      per_process_total += ranges.TotalLength();
      merged.Union(ranges);
    }
    EXPECT_EQ(merged.TotalLength(), log.AccessedRanges(file).TotalLength());
    EXPECT_GE(per_process_total, log.AccessedRanges(file).TotalLength());
  }
}

TEST(StressTest, IntervalSetAdversarialCoalescing) {
  // Insert a comb of ten thousand teeth, then close every gap; the set
  // must collapse to a single interval.
  IntervalSet set;
  for (int64_t i = 0; i < 10000; ++i) {
    set.Add(i * 4, i * 4 + 2);
  }
  EXPECT_EQ(set.size(), 10000u);
  for (int64_t i = 0; i < 10000; ++i) {
    set.Add(i * 4 + 2, i * 4 + 4);
  }
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.TotalLength(), 40000);
}

TEST(StressTest, HullOverFiveThousand3DPoints) {
  Rng rng(3);
  std::vector<Vec3> points;
  points.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    points.push_back(Vec3(rng.UniformDouble(0, 100),
                          rng.UniformDouble(0, 100),
                          rng.UniformDouble(0, 100)));
  }
  const Hull hull = Hull::Build(points, 3);
  EXPECT_EQ(hull.affine_rank(), 3);
  // Spot-check containment on a sample (full scan is O(n * facets)).
  for (int i = 0; i < 5000; i += 50) {
    EXPECT_TRUE(hull.Contains(points[static_cast<size_t>(i)], 1e-6)) << i;
  }
  // The hull of ~uniform points in a cube approaches the cube volume.
  EXPECT_GT(hull.Measure(), 0.8 * 100 * 100 * 100);
  EXPECT_LE(hull.Measure(), 100.0 * 100 * 100 + 1e-6);
}

TEST(StressTest, CarveTenThousandScatteredPoints) {
  const Shape shape{512, 512};
  IndexSet points(shape);
  Rng rng(4);
  // 20 clusters of 500 points each.
  for (int c = 0; c < 20; ++c) {
    const int64_t cx = rng.UniformInt(30, 480);
    const int64_t cy = rng.UniformInt(30, 480);
    for (int i = 0; i < 500; ++i) {
      points.Insert(Index{cx + rng.UniformInt(-25, 25),
                          cy + rng.UniformInt(-25, 25)});
    }
  }
  Carver carver(CarveConfig{});
  CarveStats stats;
  const CarvedSubset carved = carver.Carve(points, &stats);
  EXPECT_GT(stats.initial_hulls, 20);
  EXPECT_LE(stats.final_hulls, stats.initial_hulls);
  // No observed point may be dropped.
  const IndexSet raster = carved.Rasterize();
  EXPECT_TRUE(points.IsSubsetOf(raster));
}

}  // namespace
}  // namespace kondo
