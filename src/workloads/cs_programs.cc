#include "workloads/cs_programs.h"

#include <cmath>

namespace kondo {

std::string CsVariantName(CsVariant variant) {
  switch (variant) {
    case CsVariant::kBase:
      return "CS";
    case CsVariant::kCs1:
      return "CS1";
    case CsVariant::kCs2:
      return "CS2";
    case CsVariant::kCs3:
      return "CS3";
    case CsVariant::kCs5:
      return "CS5";
  }
  return "CS?";
}

CsProgram::CsProgram(CsVariant variant, int64_t n)
    : variant_(variant),
      n_(n),
      name_(CsVariantName(variant)),
      space_({ParamRange{0, static_cast<double>(n - 1), true},
              ParamRange{0, static_cast<double>(n - 1), true}}),
      shape_({n, n}),
      cross_(CrossStencil2D()) {
  switch (variant) {
    case CsVariant::kBase:
      description_ = "Listing-1 cross stencil, stepX <= stepY";
      break;
    case CsVariant::kCs1:
      description_ = "cross stencil with a distant sparse second triangle";
      break;
    case CsVariant::kCs2:
      description_ = "cross stencil restricted to |stepX-stepY| <= 4";
      break;
    case CsVariant::kCs3:
      description_ = "cross stencil useful only for stepY >= 3N/4";
      break;
    case CsVariant::kCs5:
      description_ = "dense small-step cone plus sparse far-corner lattice";
      break;
  }
}

void CsProgram::Walk(int64_t i0, int64_t j0, int64_t sx, int64_t sy,
                     int read_modulo, const ReadFn& read) const {
  int64_t i = i0;
  int64_t j = j0;
  int64_t k = 0;
  while (i + 1 <= n_ - 1 && j + 1 <= n_ - 1) {
    if (read_modulo <= 1 || k % read_modulo == 0) {
      cross_.Apply(shape_, Index{i, j}, read);
    }
    if (sx == 0 && sy == 0) {
      break;  // A zero step would loop forever; one cross is read.
    }
    i += sx;
    j += sy;
    ++k;
  }
}

const IndexSet& CsProgram::GroundTruth() const {
  if (variant_ != CsVariant::kCs3) {
    return Program::GroundTruth();
  }
  MutexLock lock(ground_truth_mu_);
  if (!ground_truth_ready_) {
    // Useful runs satisfy sx <= sy and sy >= 3n/4. Position k of the walk is
    // read while both coordinates are <= n-2; k >= 2 overshoots (2*sy >=
    // 1.5n), so the accessed positions are (0, 0) plus every (sx, sy) with
    // sx <= n-2 — dilated by the cross stencil.
    IndexSet::Builder gt(shape_);
    const ReadFn insert = [&gt](const Index& index) { gt.Insert(index); };
    cross_.Apply(shape_, Index{0, 0}, insert);
    for (int64_t y = 3 * n_ / 4; y <= n_ - 2; ++y) {
      for (int64_t x = 0; x <= std::min(y, n_ - 2); ++x) {
        cross_.Apply(shape_, Index{x, y}, insert);
      }
    }
    ground_truth_cache_ = gt.Build();
    ground_truth_ready_ = true;
  }
  return ground_truth_cache_;
}

void CsProgram::Execute(const ParamValue& v, const ReadFn& read) const {
  const int64_t sx = static_cast<int64_t>(std::llround(v[0]));
  const int64_t sy = static_cast<int64_t>(std::llround(v[1]));
  if (sx < 0 || sy < 0 || sx > n_ - 1 || sy > n_ - 1) {
    return;
  }
  const int64_t gap = n_ / 2;
  switch (variant_) {
    case CsVariant::kBase:
      if (sx > sy) {
        return;
      }
      Walk(0, 0, sx, sy, 1, read);
      return;
    case CsVariant::kCs1:
      if (sx <= sy) {
        Walk(0, 0, sx, sy, 1, read);
      } else if (sx >= sy + gap) {
        // Mirror triangle anchored at (gap, 0), read every 4th position.
        Walk(gap, 0, sx - gap, sy, 4, read);
      }
      return;
    case CsVariant::kCs2:
      // Diagonal band: useful only when the steps are near-equal; the walk
      // then follows the unit diagonal from (sx, sy), so the union over Θ
      // is the dense band |x - y| <= 4 (dilated by the cross stencil).
      if (std::llabs(sx - sy) > 4) {
        return;
      }
      Walk(sx, sy, 1, 1, 1, read);
      return;
    case CsVariant::kCs3:
      if (sx > sy || sy < 3 * n_ / 4) {
        return;
      }
      Walk(0, 0, sx, sy, 1, read);
      return;
    case CsVariant::kCs5:
      if (sx <= sy && sy <= n_ / 4) {
        Walk(0, 0, sx, sy, 1, read);
      } else if (sx >= 3 * n_ / 4 && sy >= 3 * n_ / 4 && sx % 4 == 0 &&
                 sy % 4 == 0) {
        // A single cross on the sparse far-corner lattice.
        cross_.Apply(shape_, Index{sx, sy}, read);
      }
      return;
  }
}

}  // namespace kondo
