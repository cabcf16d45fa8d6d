#include "workloads/vpic_program.h"

#include <algorithm>
#include <cmath>

namespace kondo {

VpicProgram::VpicProgram(int64_t n)
    : n_(n),
      min_threshold_(60),
      space_({ParamRange{static_cast<double>(min_threshold_), 100.0, true},
              ParamRange{0.0, static_cast<double>(n - 1), true}}),
      shape_({n, n, n}) {
  // Prebuild the per-slab sorted index (descending energy), as the data
  // producer would.
  slab_index_.resize(static_cast<size_t>(n));
  for (int64_t z = 0; z < n_; ++z) {
    std::vector<Index>& slab = slab_index_[static_cast<size_t>(z)];
    for (int64_t x = 0; x < n_; ++x) {
      for (int64_t y = 0; y < n_; ++y) {
        slab.push_back(Index{x, y, z});
      }
    }
    std::sort(slab.begin(), slab.end(),
              [this](const Index& a, const Index& b) {
                return EnergyAt(a) > EnergyAt(b);
              });
  }
}

double VpicProgram::EnergyAt(const Index& index) const {
  // A radial hot spot centred at (n/3, n/3, n/2): energy decays linearly
  // with euclidean distance, clamped to [0, 100]. Deterministic in the
  // coordinates, so I_v depends only on v (Section III's assumption).
  const double cx = static_cast<double>(n_) / 3.0;
  const double cy = static_cast<double>(n_) / 3.0;
  const double cz = static_cast<double>(n_) / 2.0;
  const double dx = static_cast<double>(index[0]) - cx;
  const double dy = static_cast<double>(index[1]) - cy;
  const double dz = static_cast<double>(index[2]) - cz;
  const double distance = std::sqrt(dx * dx + dy * dy + dz * dz);
  // Full energy at the core, zero at ~2/3 of the mesh away.
  const double radius = 2.0 * static_cast<double>(n_) / 3.0;
  return std::clamp(100.0 * (1.0 - distance / radius), 0.0, 100.0);
}

void VpicProgram::Execute(const ParamValue& v, const ReadFn& read) const {
  const int64_t threshold = static_cast<int64_t>(std::llround(v[0]));
  const int64_t z = static_cast<int64_t>(std::llround(v[1]));
  if (threshold < min_threshold_ || threshold > 100 || z < 0 || z >= n_) {
    return;
  }
  // Walk the sorted index until energy drops below the threshold — the
  // subsetting read pattern an attribute index enables.
  for (const Index& index : slab_index_[static_cast<size_t>(z)]) {
    if (EnergyAt(index) < static_cast<double>(threshold)) {
      break;
    }
    read(index);
  }
}

const IndexSet& VpicProgram::GroundTruth() const {
  MutexLock lock(ground_truth_mu_);
  if (!ground_truth_ready_) {
    // The loosest supported run per slab reads everything with energy >=
    // min_threshold; tighter thresholds read subsets of that.
    IndexSet::Builder gt(shape_);
    shape_.ForEachIndex([this, &gt](const Index& index) {
      if (EnergyAt(index) >= static_cast<double>(min_threshold_)) {
        gt.Insert(index);
      }
    });
    ground_truth_cache_ = gt.Build();
    ground_truth_ready_ = true;
  }
  return ground_truth_cache_;
}

}  // namespace kondo
