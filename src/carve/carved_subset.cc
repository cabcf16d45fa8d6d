#include "carve/carved_subset.h"

namespace kondo {

bool CarvedSubset::Contains(const Index& index) const {
  for (const Hull& hull : hulls_) {
    if (hull.ContainsIndex(index)) {
      return true;
    }
  }
  return false;
}

IndexSet CarvedSubset::Rasterize() const {
  // Each hull's runs arrive in ascending order into a set of its own; the
  // per-hull sets are then merged.
  IndexSet result(shape_);
  for (const Hull& hull : hulls_) {
    IndexSet points(shape_);
    hull.RasterizeInto(&points);
    result.Union(points);
  }
  return result;
}

}  // namespace kondo
