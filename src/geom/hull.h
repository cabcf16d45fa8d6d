#ifndef KONDO_GEOM_HULL_H_
#define KONDO_GEOM_HULL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "array/index.h"
#include "array/index_set.h"
#include "array/shape.h"
#include "geom/convex2d.h"
#include "geom/convex3d.h"
#include "geom/vec.h"

namespace kondo {

/// A convex hull over points in an ambient space of rank 1..3, with full
/// degeneracy handling: the point set's affine rank r <= ambient rank is
/// detected and the hull is computed in r dimensions (a point, a segment, a
/// polygon, or a polytope). This is the geometric object the Carver
/// manipulates (Algorithm 2): hulls are built per cell, merged by recomputing
/// the hull of the union of vertex sets, and finally rasterised back to
/// integer index sets.
class Hull {
 public:
  /// Builds the hull of `points` (ambient rank `rank`, 1..3). Requires at
  /// least one point; duplicates are fine.
  static Hull Build(const std::vector<Vec3>& points, int rank);

  /// Convenience: hull of array indices.
  static Hull FromIndices(const std::vector<Index>& indices, int rank);

  int rank() const { return rank_; }
  /// Affine rank of the vertex set (0 = point, 1 = segment, ...).
  int affine_rank() const { return affine_rank_; }

  /// Hull vertices in ambient coordinates. Merging two hulls h1, h2 is
  /// Hull::Build(h1.vertices() ∪ h2.vertices(), rank), which equals the hull
  /// of the union of the original point sets (Section IV-B).
  const std::vector<Vec3>& vertices() const { return vertices_; }

  /// Centroid of the hull vertices — the paper's "hull center".
  const Vec3& centroid() const { return centroid_; }

  /// True when `p` is inside or on the hull (tolerance `tol`).
  bool Contains(const Vec3& p, double tol = kGeomTol) const;

  /// True when the integer index lies inside the hull.
  bool ContainsIndex(const Index& index, double tol = 1e-6) const;

  /// r-dimensional measure of the hull (length / area / volume; 0 for a
  /// point).
  double Measure() const;

  /// The paper's "hull boundary" distance: the minimum distance between
  /// this hull's vertices and `other`'s vertices.
  double MinVertexDistance(const Hull& other) const;

  /// Distance between the two hull centroids.
  double CentroidDistance(const Hull& other) const;

  /// Distance between the axis-aligned bounding boxes of the two vertex
  /// sets: O(1), and never more than MinVertexDistance.
  double BoundingBoxDistance(const Hull& other) const;

  /// Axis-aligned integer bounding box, inclusive: out parameters receive
  /// floor(min)-bounds and ceil(max)-bounds per dimension.
  void IntegerBounds(int64_t lo[3], int64_t hi[3]) const;

  /// Inserts into `out` every integer index of `shape` inside the hull,
  /// i.e. every index whose point `Contains` accepts. Only the hull's
  /// bounding box is scanned; a full-rank 3-D hull is scanned one z-run
  /// per (x, y) line rather than point by point. Runs are inserted whole
  /// and in ascending id order, so filling an empty `out` costs O(1) each.
  void RasterizeInto(IndexSet* out, double tol = 1e-6) const;

  /// Number of integer points of `shape` inside the hull (without
  /// materialising them).
  int64_t CountIntegerPoints(const Shape& shape, double tol = 1e-6) const;

 private:
  Hull() = default;

  /// Runs of a rasterisation: `fn(x, y, z_begin, z_end)` is called once per
  /// maximal run [z_begin, z_end] of in-hull integer points on each (x, y)
  /// line of the clipped bounding box, in ascending (x, y) order. Unused
  /// coordinates of a rank < 3 hull are 0, so its runs are single points.
  using RunFn = std::function<void(int64_t x, int64_t y, int64_t z_begin,
                                   int64_t z_end)>;
  void ForEachRun(const Shape& shape, double tol, const RunFn& fn) const;

  /// Projects `p` into local affine coordinates; `residual` (optional)
  /// receives the distance from `p` to the affine subspace.
  Vec3 ToLocal(const Vec3& p, double* residual) const;

  int rank_ = 0;
  int affine_rank_ = 0;
  std::vector<Vec3> vertices_;  // Ambient coordinates.
  Vec3 centroid_;
  Vec3 box_lo_;  // Per-coordinate minimum and maximum of vertices_.
  Vec3 box_hi_;

  // Affine frame: origin + orthonormal basis vectors (affine_rank_ of them).
  Vec3 origin_;
  Vec3 basis_[3];

  // Local-coordinate hull representations by affine rank.
  double seg_lo_ = 0.0, seg_hi_ = 0.0;       // rank 1: interval along basis 0.
  std::vector<Vec2> polygon_;                // rank 2: CCW polygon.
  std::vector<Vec3> local_points_;           // rank 3: hull vertex coords.
  Hull3D hull3d_;                            // rank 3: facets over local pts.
};

}  // namespace kondo

#endif  // KONDO_GEOM_HULL_H_
