#include "carve/carver.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "geom/vec.h"

namespace kondo {
namespace {

/// Cell coordinate of an index under SPLIT.
struct CellCoord {
  int64_t c[3] = {0, 0, 0};

  friend bool operator<(const CellCoord& a, const CellCoord& b) {
    for (int d = 0; d < 3; ++d) {
      if (a.c[d] != b.c[d]) {
        return a.c[d] < b.c[d];
      }
    }
    return false;
  }
};

struct ClosePair {
  int64_t i = -1;
  int64_t j = -1;
};

/// Lexicographically smallest CLOSE pair — smallest i, then smallest j —
/// or {-1, -1}. `changed` is the hull the previous round merged into (-1
/// in the first round). That round's scan found every pair in rows below
/// `changed` not CLOSE, and those rows' other hulls are unchanged, so rows
/// below `changed` re-test only their pair with it; the full scan resumes
/// at row `changed`. The pair is the one a full scan from row 0 finds.
ClosePair FindFirstClosePair(const Carver& carver,
                             const std::vector<Hull>& hulls,
                             int64_t changed) {
  const int64_t n = static_cast<int64_t>(hulls.size());
  for (int64_t i = 0; i < changed; ++i) {
    if (carver.Close(hulls[static_cast<size_t>(i)],
                     hulls[static_cast<size_t>(changed)])) {
      return {i, changed};
    }
  }
  for (int64_t i = std::max<int64_t>(changed, 0); i + 1 < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (carver.Close(hulls[static_cast<size_t>(i)],
                       hulls[static_cast<size_t>(j)])) {
        return {i, j};
      }
    }
  }
  return {};
}

}  // namespace

bool Carver::Close(const Hull& a, const Hull& b) const {
  // Cheapest test first. The centroid distance alone settles the answer
  // whenever it is decisive for the mode; otherwise the boundary criterion
  // decides, and the O(1) bounding-box distance — a lower bound of the
  // boundary distance — rules out far pairs before the O(Va·Vb) vertex
  // scan. The kGeomTol margin keeps rounding in either distance from
  // flipping the answer.
  const bool center_close = a.CentroidDistance(b) <= config_.center_d_thresh;
  switch (config_.close_mode) {
    case CloseMode::kBoundaryOrCenter:
      if (center_close) {
        return true;
      }
      break;
    case CloseMode::kBoundaryAndCenter:
      if (!center_close) {
        return false;
      }
      break;
  }
  if (a.BoundingBoxDistance(b) > config_.boundary_d_thresh + kGeomTol) {
    return false;
  }
  return a.MinVertexDistance(b) <= config_.boundary_d_thresh;
}

CarvedSubset Carver::Carve(const IndexSet& points, CarveStats* stats) const {
  CampaignExecutor serial(1);
  return Carve(points, serial, stats);
}

CarvedSubset Carver::Carve(const IndexSet& points, CampaignExecutor& executor,
                           CarveStats* stats) const {
  const Shape& shape = points.shape();
  const int rank = shape.rank();
  KONDO_CHECK(rank >= 1 && rank <= 3);

  // SPLIT: bucket points into fixed-size cells.
  std::map<CellCoord, std::vector<Vec3>> cells;
  points.ForEach([this, rank, &cells](const Index& index) {
    CellCoord coord;
    for (int d = 0; d < rank; ++d) {
      coord.c[d] = index[d] / config_.cell_size;
    }
    cells[coord].push_back(Vec3::FromIndex(index));
  });

  // One hull per non-empty cell, built over the executor's workers and
  // stored in cell order.
  std::vector<const std::vector<Vec3>*> cell_points;
  cell_points.reserve(cells.size());
  for (const auto& [coord, cell] : cells) {
    cell_points.push_back(&cell);
  }
  std::vector<std::optional<Hull>> built =
      executor.Map<std::optional<Hull>>(
          static_cast<int64_t>(cell_points.size()),
          [&cell_points, rank](int64_t c) {
            return Hull::Build(*cell_points[static_cast<size_t>(c)], rank);
          });
  std::vector<Hull> hulls;
  hulls.reserve(built.size());
  for (std::optional<Hull>& hull : built) {
    hulls.push_back(std::move(*hull));
  }

  if (stats != nullptr) {
    stats->num_cells = static_cast<int>(cells.size());
    stats->initial_hulls = static_cast<int>(hulls.size());
    stats->merge_operations = 0;
  }

  // Iterated pairwise merging until no two hulls are CLOSE. Each merge
  // strictly decreases the hull count, so at most initial_hulls - 1 merges
  // happen; the rounds bound is a config safety net. Every round merges
  // the lexicographically smallest CLOSE pair.
  int rounds = 0;
  int64_t changed = -1;
  while (rounds++ < config_.max_merge_rounds) {
    const ClosePair pair = FindFirstClosePair(*this, hulls, changed);
    if (pair.i < 0) {
      break;
    }
    std::vector<Vec3> union_vertices =
        hulls[static_cast<size_t>(pair.i)].vertices();
    union_vertices.insert(
        union_vertices.end(),
        hulls[static_cast<size_t>(pair.j)].vertices().begin(),
        hulls[static_cast<size_t>(pair.j)].vertices().end());
    Hull merged = Hull::Build(union_vertices, rank);
    hulls.erase(hulls.begin() + pair.j);
    hulls[static_cast<size_t>(pair.i)] = std::move(merged);
    changed = pair.i;
    if (stats != nullptr) {
      ++stats->merge_operations;
    }
  }

  if (stats != nullptr) {
    stats->final_hulls = static_cast<int>(hulls.size());
  }
  return CarvedSubset(shape, std::move(hulls));
}

IndexSet Carver::Rasterize(const CarvedSubset& carved,
                           CampaignExecutor& executor) {
  const std::vector<Hull>& hulls = carved.hulls();
  if (executor.jobs() <= 1 || hulls.size() <= 1) {
    return carved.Rasterize();
  }
  std::vector<IndexSet> per_hull = executor.Map<IndexSet>(
      static_cast<int64_t>(hulls.size()), [&carved, &hulls](int64_t i) {
        IndexSet points(carved.shape());
        hulls[static_cast<size_t>(i)].RasterizeInto(&points);
        return points;
      });
  IndexSet result(carved.shape());
  for (const IndexSet& points : per_hull) {
    result.Union(points);
  }
  return result;
}

CarvedSubset SimpleConvexCarve(const IndexSet& points) {
  const Shape& shape = points.shape();
  std::vector<Vec3> all_points;
  all_points.reserve(points.size());
  points.ForEach([&all_points](const Index& index) {
    all_points.push_back(Vec3::FromIndex(index));
  });
  std::vector<Hull> hulls;
  if (!all_points.empty()) {
    hulls.push_back(Hull::Build(all_points, shape.rank()));
  }
  return CarvedSubset(shape, std::move(hulls));
}

}  // namespace kondo
