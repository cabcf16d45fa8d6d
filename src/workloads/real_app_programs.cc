#include "workloads/real_app_programs.h"

#include <cmath>

namespace kondo {

ArdProgram::ArdProgram(int64_t scale)
    : w_max_(200 / scale),
      h_max_(500 / scale),
      t_max_(512),
      space_({ParamRange{static_cast<double>(50 / scale),
                         static_cast<double>(w_max_), true},
              ParamRange{static_cast<double>(100 / scale),
                         static_cast<double>(h_max_), true},
              ParamRange{0.0, static_cast<double>(t_max_ - 1), true}}),
      shape_({1536 / scale, 2304 / scale, t_max_}) {}

void ArdProgram::Execute(const ParamValue& v, const ReadFn& read) const {
  const int64_t w = static_cast<int64_t>(std::llround(v[0]));
  const int64_t h = static_cast<int64_t>(std::llround(v[1]));
  const int64_t t = static_cast<int64_t>(std::llround(v[2]));
  if (w < space_.range(0).lo || w > w_max_ || h < space_.range(1).lo ||
      h > h_max_ || t < 0 || t >= t_max_) {
    return;
  }
  for (int64_t x = 0; x < w; ++x) {
    for (int64_t y = 0; y < h; ++y) {
      read(Index{x, y, t});
    }
  }
}

const IndexSet& ArdProgram::GroundTruth() const {
  MutexLock lock(ground_truth_mu_);
  if (!ground_truth_ready_) {
    IndexSet gt(shape_);
    for (int64_t x = 0; x < w_max_; ++x) {
      for (int64_t y = 0; y < h_max_; ++y) {
        const int64_t first = shape_.Linearize(Index{x, y, 0});
        gt.InsertRun(first, first + t_max_);
      }
    }
    ground_truth_cache_ = std::move(gt);
    ground_truth_ready_ = true;
  }
  return ground_truth_cache_;
}

MsiProgram::MsiProgram(int64_t nx, int64_t ny, int64_t nz)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      // The paper's spectral window is 10000..15000 of 133092 (3.76%);
      // scaled proportionally into [z_lo, z_hi].
      z_lo_(nz * 10000 / 133092),
      z_hi_(nz * 15000 / 133092),
      space_({ParamRange{0.0, static_cast<double>(nx - 1), true},
              ParamRange{0.0, static_cast<double>(ny - 1), true},
              ParamRange{static_cast<double>(z_lo_),
                         static_cast<double>(z_hi_), true}}),
      shape_({nx, ny, nz}) {}

void MsiProgram::Execute(const ParamValue& v, const ReadFn& read) const {
  const int64_t x = static_cast<int64_t>(std::llround(v[0]));
  const int64_t y = static_cast<int64_t>(std::llround(v[1]));
  const int64_t z = static_cast<int64_t>(std::llround(v[2]));
  if (x < 0 || x >= nx_ || y < 0 || y >= ny_ || z < z_lo_ || z > z_hi_) {
    return;
  }
  for (int64_t zz = z_lo_; zz <= z; ++zz) {
    read(Index{x, y, zz});
  }
}

const IndexSet& MsiProgram::GroundTruth() const {
  MutexLock lock(ground_truth_mu_);
  if (!ground_truth_ready_) {
    IndexSet gt(shape_);
    for (int64_t x = 0; x < nx_; ++x) {
      for (int64_t y = 0; y < ny_; ++y) {
        const int64_t first = shape_.Linearize(Index{x, y, 0});
        gt.InsertRun(first + z_lo_, first + z_hi_ + 1);
      }
    }
    ground_truth_cache_ = std::move(gt);
    ground_truth_ready_ = true;
  }
  return ground_truth_cache_;
}

}  // namespace kondo
