#include "geom/convex3d.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/logging.h"

namespace kondo {
namespace {

/// Builds an outward-oriented facet over points[a], points[b], points[c],
/// flipping winding if needed so that `interior` lies on the negative side.
HullFacet MakeFacet(const std::vector<Vec3>& points, int a, int b, int c,
                    const Vec3& interior) {
  HullFacet facet;
  facet.a = a;
  facet.b = b;
  facet.c = c;
  Vec3 normal =
      Cross(points[b] - points[a], points[c] - points[a]);
  normal = Normalized(normal);
  double offset = Dot(normal, points[a]);
  if (Dot(normal, interior) - offset > 0.0) {
    std::swap(facet.b, facet.c);
    normal = normal * -1.0;
    offset = -offset;
  }
  facet.normal = normal;
  facet.offset = offset;
  return facet;
}

/// Finds four points spanning 3-D space; returns false when the input is
/// degenerate (the caller should have rank-reduced already).
bool FindInitialTetrahedron(const std::vector<Vec3>& points, int out[4]) {
  const int n = static_cast<int>(points.size());
  if (n < 4) {
    return false;
  }
  // First two: the pair realizing the largest extent along any axis.
  int i0 = 0;
  int i1 = 0;
  double best = -1.0;
  for (int axis = 0; axis < 3; ++axis) {
    int lo = 0;
    int hi = 0;
    for (int i = 1; i < n; ++i) {
      if (points[i][axis] < points[lo][axis]) lo = i;
      if (points[i][axis] > points[hi][axis]) hi = i;
    }
    const double extent = points[hi][axis] - points[lo][axis];
    if (extent > best) {
      best = extent;
      i0 = lo;
      i1 = hi;
    }
  }
  if (best <= kGeomTol) {
    return false;
  }
  // Third: farthest from the line i0-i1.
  const Vec3 dir = Normalized(points[i1] - points[i0]);
  int i2 = -1;
  best = kGeomTol;
  for (int i = 0; i < n; ++i) {
    const Vec3 rel = points[i] - points[i0];
    const double dist = Norm(rel - dir * Dot(rel, dir));
    if (dist > best) {
      best = dist;
      i2 = i;
    }
  }
  if (i2 < 0) {
    return false;
  }
  // Fourth: farthest from the plane (i0, i1, i2).
  const Vec3 normal =
      Normalized(Cross(points[i1] - points[i0], points[i2] - points[i0]));
  int i3 = -1;
  best = kGeomTol;
  for (int i = 0; i < n; ++i) {
    const double dist = std::abs(Dot(normal, points[i] - points[i0]));
    if (dist > best) {
      best = dist;
      i3 = i;
    }
  }
  if (i3 < 0) {
    return false;
  }
  out[0] = i0;
  out[1] = i1;
  out[2] = i2;
  out[3] = i3;
  return true;
}

}  // namespace

Hull3D ConvexHull3D(const std::vector<Vec3>& points) {
  Hull3D hull;
  int tetra[4] = {0, 0, 0, 0};
  KONDO_CHECK(FindInitialTetrahedron(points, tetra))
      << "ConvexHull3D requires full-dimensional input";

  const Vec3 interior = (points[tetra[0]] + points[tetra[1]] +
                         points[tetra[2]] + points[tetra[3]]) /
                        4.0;
  std::vector<HullFacet>& facets = hull.facets;
  facets.push_back(MakeFacet(points, tetra[0], tetra[1], tetra[2], interior));
  facets.push_back(MakeFacet(points, tetra[0], tetra[1], tetra[3], interior));
  facets.push_back(MakeFacet(points, tetra[0], tetra[2], tetra[3], interior));
  facets.push_back(MakeFacet(points, tetra[1], tetra[2], tetra[3], interior));

  // An edge of a visible facet: (lo, hi) is the undirected key, (u, v) the
  // facet's winding.
  struct Edge {
    int lo;
    int hi;
    int u;
    int v;
  };
  // Scratch reused by every point.
  std::vector<char> visible;
  std::vector<Edge> edges;
  const int n = static_cast<int>(points.size());
  for (int i = 0; i < n; ++i) {
    if (i == tetra[0] || i == tetra[1] || i == tetra[2] || i == tetra[3]) {
      continue;
    }
    // Facets visible from points[i]. Every facet is tested either way, so
    // the scan has no early exit and no branch.
    const Vec3 p = points[static_cast<size_t>(i)];
    const size_t count = facets.size();
    visible.resize(count);
    const HullFacet* facet_data = facets.data();
    char* is_visible = visible.data();
    char any_visible = 0;
    for (size_t f = 0; f < count; ++f) {
      const char outside = facet_data[f].SignedDistance(p) > kGeomTol;
      is_visible[f] = outside;
      any_visible |= outside;
    }
    if (!any_visible) {
      continue;  // Inside (or on) the current hull.
    }
    // Remove the visible facets in place, keeping the others in order, and
    // collect the visible facets' edges.
    edges.clear();
    size_t kept = 0;
    for (size_t f = 0; f < count; ++f) {
      const HullFacet facet = facets[f];
      if (!is_visible[f]) {
        facets[kept++] = facet;
        continue;
      }
      const int corners[3] = {facet.a, facet.b, facet.c};
      for (int k = 0; k < 3; ++k) {
        const int u = corners[k];
        const int v = corners[(k + 1) % 3];
        edges.push_back({std::min(u, v), std::max(u, v), u, v});
      }
    }
    facets.resize(kept);
    // Horizon edges belong to exactly one visible facet; an edge shared by
    // two is interior to the visible region. Attach a new facet to each
    // horizon edge in (lo, hi) order.
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
      return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
    });
    for (size_t e = 0; e < edges.size();) {
      size_t next = e + 1;
      while (next < edges.size() && edges[next].lo == edges[e].lo &&
             edges[next].hi == edges[e].hi) {
        ++next;
      }
      if (next == e + 1) {
        facets.push_back(MakeFacet(points, edges[e].u, edges[e].v, i,
                                   interior));
      }
      e = next;
    }
  }

  std::set<int> vertex_set;
  for (const HullFacet& facet : hull.facets) {
    vertex_set.insert(facet.a);
    vertex_set.insert(facet.b);
    vertex_set.insert(facet.c);
  }
  hull.vertex_indices.assign(vertex_set.begin(), vertex_set.end());
  return hull;
}

bool PointInHull3D(const Hull3D& hull, const Vec3& p, double tol) {
  for (const HullFacet& facet : hull.facets) {
    if (facet.SignedDistance(p) > tol) {
      return false;
    }
  }
  return !hull.facets.empty();
}

double Hull3DVolume(const Hull3D& hull, const std::vector<Vec3>& points) {
  if (hull.facets.empty()) {
    return 0.0;
  }
  // Sum of signed tetrahedron volumes from the origin; facets are outward
  // oriented so the signed sum is the enclosed volume.
  double volume = 0.0;
  for (const HullFacet& facet : hull.facets) {
    const Vec3& a = points[facet.a];
    const Vec3& b = points[facet.b];
    const Vec3& c = points[facet.c];
    volume += Dot(a, Cross(b, c));
  }
  return std::abs(volume) / 6.0;
}

}  // namespace kondo
