#include "geom/hull.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace kondo {
namespace {

/// Sort-and-dedupe for exact coordinate duplicates.
void DedupePoints(std::vector<Vec3>* points) {
  std::sort(points->begin(), points->end(),
            [](const Vec3& a, const Vec3& b) {
              if (a.x != b.x) return a.x < b.x;
              if (a.y != b.y) return a.y < b.y;
              return a.z < b.z;
            });
  points->erase(std::unique(points->begin(), points->end()), points->end());
}

}  // namespace

Hull Hull::Build(const std::vector<Vec3>& input_points, int rank) {
  KONDO_CHECK(rank >= 1 && rank <= 3);
  KONDO_CHECK(!input_points.empty());
  std::vector<Vec3> points = input_points;
  DedupePoints(&points);

  Hull hull;
  hull.rank_ = rank;
  hull.origin_ = points[0];

  // Greedy affine-basis construction: repeatedly pick the point with the
  // largest residual after projecting onto the current basis.
  int affine_rank = 0;
  while (affine_rank < rank) {
    double best_residual = kGeomTol;
    Vec3 best_direction;
    bool found = false;
    for (const Vec3& p : points) {
      Vec3 rel = p - hull.origin_;
      for (int b = 0; b < affine_rank; ++b) {
        rel = rel - hull.basis_[b] * Dot(rel, hull.basis_[b]);
      }
      const double residual = Norm(rel);
      if (residual > best_residual) {
        best_residual = residual;
        best_direction = rel / residual;
        found = true;
      }
    }
    if (!found) {
      break;
    }
    hull.basis_[affine_rank++] = best_direction;
  }
  hull.affine_rank_ = affine_rank;

  switch (affine_rank) {
    case 0: {
      hull.vertices_ = {hull.origin_};
      break;
    }
    case 1: {
      double lo = 0.0;
      double hi = 0.0;
      for (const Vec3& p : points) {
        const double t = Dot(p - hull.origin_, hull.basis_[0]);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      hull.seg_lo_ = lo;
      hull.seg_hi_ = hi;
      hull.vertices_ = {hull.origin_ + hull.basis_[0] * lo,
                        hull.origin_ + hull.basis_[0] * hi};
      break;
    }
    case 2: {
      std::vector<Vec2> local(points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        const Vec3 rel = points[i] - hull.origin_;
        local[i] = Vec2{Dot(rel, hull.basis_[0]), Dot(rel, hull.basis_[1])};
      }
      hull.polygon_ = ConvexHull2D(std::move(local));
      hull.vertices_.reserve(hull.polygon_.size());
      for (const Vec2& v : hull.polygon_) {
        hull.vertices_.push_back(hull.origin_ + hull.basis_[0] * v.x +
                                 hull.basis_[1] * v.y);
      }
      break;
    }
    case 3: {
      hull.local_points_.resize(points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        const Vec3 rel = points[i] - hull.origin_;
        hull.local_points_[i] =
            Vec3(Dot(rel, hull.basis_[0]), Dot(rel, hull.basis_[1]),
                 Dot(rel, hull.basis_[2]));
      }
      hull.hull3d_ = ConvexHull3D(hull.local_points_);
      hull.vertices_.reserve(hull.hull3d_.vertex_indices.size());
      for (int idx : hull.hull3d_.vertex_indices) {
        hull.vertices_.push_back(points[static_cast<size_t>(idx)]);
      }
      break;
    }
    default:
      KONDO_LOG(Fatal) << "unreachable affine rank";
  }

  Vec3 sum;
  hull.box_lo_ = hull.vertices_[0];
  hull.box_hi_ = hull.vertices_[0];
  for (const Vec3& v : hull.vertices_) {
    sum += v;
    for (int d = 0; d < 3; ++d) {
      hull.box_lo_[d] = std::min(hull.box_lo_[d], v[d]);
      hull.box_hi_[d] = std::max(hull.box_hi_[d], v[d]);
    }
  }
  hull.centroid_ = sum / static_cast<double>(hull.vertices_.size());
  return hull;
}

Hull Hull::FromIndices(const std::vector<Index>& indices, int rank) {
  std::vector<Vec3> points;
  points.reserve(indices.size());
  for (const Index& index : indices) {
    points.push_back(Vec3::FromIndex(index));
  }
  return Build(points, rank);
}

Vec3 Hull::ToLocal(const Vec3& p, double* residual) const {
  Vec3 rel = p - origin_;
  Vec3 local;
  for (int b = 0; b < affine_rank_; ++b) {
    local[b] = Dot(rel, basis_[b]);
    rel = rel - basis_[b] * local[b];
  }
  if (residual != nullptr) {
    *residual = Norm(rel);
  }
  return local;
}

bool Hull::Contains(const Vec3& p, double tol) const {
  double residual = 0.0;
  const Vec3 local = ToLocal(p, &residual);
  if (residual > tol) {
    return false;
  }
  switch (affine_rank_) {
    case 0:
      return true;  // residual already checked against the single point.
    case 1:
      return local.x >= seg_lo_ - tol && local.x <= seg_hi_ + tol;
    case 2:
      return PointInConvexPolygon(polygon_, Vec2{local.x, local.y}, tol);
    case 3:
      return PointInHull3D(hull3d_, local, tol);
    default:
      return false;
  }
}

bool Hull::ContainsIndex(const Index& index, double tol) const {
  return Contains(Vec3::FromIndex(index), tol);
}

double Hull::Measure() const {
  switch (affine_rank_) {
    case 0:
      return 0.0;
    case 1:
      return seg_hi_ - seg_lo_;
    case 2:
      return ConvexPolygonArea(polygon_);
    case 3:
      return Hull3DVolume(hull3d_, local_points_);
    default:
      return 0.0;
  }
}

double Hull::MinVertexDistance(const Hull& other) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Vec3& a : vertices_) {
    for (const Vec3& b : other.vertices_) {
      best = std::min(best, Distance(a, b));
    }
  }
  return best;
}

double Hull::CentroidDistance(const Hull& other) const {
  return Distance(centroid_, other.centroid_);
}

double Hull::BoundingBoxDistance(const Hull& other) const {
  Vec3 gap;
  for (int d = 0; d < 3; ++d) {
    gap[d] = std::max({0.0, other.box_lo_[d] - box_hi_[d],
                       box_lo_[d] - other.box_hi_[d]});
  }
  return Norm(gap);
}

void Hull::IntegerBounds(int64_t lo[3], int64_t hi[3]) const {
  for (int d = 0; d < 3; ++d) {
    lo[d] = 0;
    hi[d] = 0;
  }
  for (int d = 0; d < rank_; ++d) {
    lo[d] = static_cast<int64_t>(std::floor(box_lo_[d] - kGeomTol));
    hi[d] = static_cast<int64_t>(std::ceil(box_hi_[d] + kGeomTol));
  }
}

void Hull::ForEachRun(const Shape& shape, double tol, const RunFn& fn) const {
  KONDO_CHECK_EQ(shape.rank(), rank_);
  int64_t lo[3];
  int64_t hi[3];
  IntegerBounds(lo, hi);
  for (int d = 0; d < rank_; ++d) {
    lo[d] = std::max<int64_t>(lo[d], 0);
    hi[d] = std::min<int64_t>(hi[d], shape.dim(d) - 1);
  }
  // IntegerBounds leaves dimensions beyond rank_ at [0, 0]: single
  // iterations.
  if (lo[0] > hi[0] || lo[1] > hi[1] || lo[2] > hi[2]) {
    return;  // The hull lies outside the shape.
  }
  auto contains = [this, tol](int64_t x, int64_t y, int64_t z) {
    return Contains(Vec3(static_cast<double>(x), static_cast<double>(y),
                         static_cast<double>(z)),
                    tol);
  };

  if (rank_ < 3 || affine_rank_ < 3) {
    // Point-by-point scan, coalescing consecutive hits along z.
    for (int64_t x = lo[0]; x <= hi[0]; ++x) {
      for (int64_t y = lo[1]; y <= hi[1]; ++y) {
        int64_t begin = lo[2];
        bool open = false;
        for (int64_t z = lo[2]; z <= hi[2]; ++z) {
          const bool inside = contains(x, y, z);
          if (inside && !open) {
            begin = z;
          } else if (!inside && open) {
            fn(x, y, begin, z - 1);
          }
          open = inside;
        }
        if (open) {
          fn(x, y, begin, hi[2]);
        }
      }
    }
    return;
  }

  // Full-rank polytope: it meets every (x, y) line in one z interval. The
  // facet planes, moved to ambient coordinates, bound that interval in
  // O(F) per line. The estimate is widened by kSpanMargin, far above the
  // rounding of the moved planes, so it covers every point Contains
  // accepts: a line whose estimate is empty is skipped, and no line is
  // scanned point by point. Contains alone settles each run: both ends are
  // confirmed, and the first point past each end is tested, so the points
  // emitted are exactly those of a per-point scan.
  constexpr double kSpanMargin = 1e-9;
  struct Plane {
    Vec3 normal;
    double offset;
  };
  std::vector<Plane> planes;
  planes.reserve(hull3d_.facets.size());
  for (const HullFacet& facet : hull3d_.facets) {
    const Vec3 normal = basis_[0] * facet.normal.x +
                        basis_[1] * facet.normal.y +
                        basis_[2] * facet.normal.z;
    planes.push_back({normal, facet.offset + Dot(normal, origin_)});
  }
  const double bound = tol + kSpanMargin;
  const double z_min = static_cast<double>(lo[2]);
  const double z_max = static_cast<double>(hi[2]);
  for (int64_t x = lo[0]; x <= hi[0]; ++x) {
    for (int64_t y = lo[1]; y <= hi[1]; ++y) {
      const double px = static_cast<double>(x);
      const double py = static_cast<double>(y);
      double zlo = -std::numeric_limits<double>::infinity();
      double zhi = std::numeric_limits<double>::infinity();
      for (const Plane& plane : planes) {
        // Inside this facet: rest + normal.z * z <= bound.
        const double rest =
            plane.normal.x * px + plane.normal.y * py - plane.offset;
        if (plane.normal.z > 0.0) {
          zhi = std::min(zhi, (bound - rest) / plane.normal.z);
        } else if (plane.normal.z < 0.0) {
          zlo = std::max(zlo, (bound - rest) / plane.normal.z);
        } else if (rest > bound) {
          zlo = std::numeric_limits<double>::infinity();  // Parallel, outside.
        }
      }
      const double clipped_lo = std::max(zlo, z_min);
      const double clipped_hi = std::min(zhi, z_max);
      if (clipped_lo > clipped_hi) {
        continue;
      }
      int64_t begin = static_cast<int64_t>(std::ceil(clipped_lo));
      int64_t end = static_cast<int64_t>(std::floor(clipped_hi));
      while (begin <= end && !contains(x, y, begin)) ++begin;
      while (end >= begin && !contains(x, y, end)) --end;
      if (begin > end) {
        continue;
      }
      while (begin > lo[2] && contains(x, y, begin - 1)) --begin;
      while (end < hi[2] && contains(x, y, end + 1)) ++end;
      fn(x, y, begin, end);
    }
  }
}

void Hull::RasterizeInto(IndexSet* out, double tol) const {
  const Shape& shape = out->shape();
  Index index(rank_);
  ForEachRun(shape, tol,
             [this, &shape, &index, out](int64_t x, int64_t y, int64_t z_begin,
                                         int64_t z_end) {
               index[0] = x;
               if (rank_ > 1) index[1] = y;
               if (rank_ > 2) index[2] = z_begin;
               // z is the last, contiguous dimension of a rank-3 shape;
               // the runs of a rank < 3 hull are single points.
               const int64_t first = shape.Linearize(index);
               out->InsertRun(first, first + (z_end - z_begin) + 1);
             });
}

int64_t Hull::CountIntegerPoints(const Shape& shape, double tol) const {
  int64_t count = 0;
  ForEachRun(shape, tol,
             [&count](int64_t, int64_t, int64_t z_begin, int64_t z_end) {
               count += z_end - z_begin + 1;
             });
  return count;
}

}  // namespace kondo
