#ifndef KONDO_CARVE_CARVER_H_
#define KONDO_CARVE_CARVER_H_

#include <map>
#include <vector>

#include "array/index_set.h"
#include "carve/carve_config.h"
#include "carve/carved_subset.h"
#include "exec/campaign_executor.h"
#include "geom/hull.h"

namespace kondo {

/// Per-stage statistics of one carving run (used by the Fig. 6 bench to show
/// the merge algorithm's progression against the single-hull baseline).
struct CarveStats {
  int num_cells = 0;         // Non-empty cells after SPLIT.
  int initial_hulls = 0;     // Hulls before merging (== num_cells).
  int merge_operations = 0;  // Number of pairwise merges performed.
  int final_hulls = 0;       // |H| at termination.
};

/// The bottom-up convex-hull carving algorithm (Algorithm 2):
///
///   1. SPLIT the offset space into fixed-size cells and drop empty ones,
///   2. compute a convex hull per cell,
///   3. repeatedly merge any two hulls that are CLOSE — centre distance or
///      boundary distance under the configured thresholds — by taking the
///      hull of the union of their vertices (equivalent to the hull of all
///      underlying points), until no pair is close.
///
/// The merge is order-free (any direction), which is what makes the
/// procedure output-sensitive compared to the classical divide-and-conquer
/// merge the paper cites.
class Carver {
 public:
  explicit Carver(CarveConfig config) : config_(config) {}

  const CarveConfig& config() const { return config_; }

  /// Carves `points` (the fuzz-discovered index subset) into hulls.
  /// `stats` (optional) receives per-stage counters.
  CarvedSubset Carve(const IndexSet& points, CarveStats* stats = nullptr) const;

  /// As above, with the per-cell hulls built over `executor`'s workers and
  /// stored in cell order; the merge rounds run on the calling thread. The
  /// carved output and stats are bit-identical to the serial overload at
  /// every jobs setting. Must not be called from inside one of
  /// `executor`'s own pool tasks.
  CarvedSubset Carve(const IndexSet& points, CampaignExecutor& executor,
                     CarveStats* stats = nullptr) const;

  /// The CLOSE predicate of Algorithm 2.
  bool Close(const Hull& a, const Hull& b) const;

  /// Materialises `carved`'s index subset with hulls rasterised in parallel
  /// over `executor`'s workers. Hulls are independent (each scans only its
  /// own bounding box into a private IndexSet) and the per-hull sets are
  /// unioned in hull order on the calling thread, so the result is
  /// bit-identical to `carved.Rasterize()` at every jobs setting.
  static IndexSet Rasterize(const CarvedSubset& carved,
                            CampaignExecutor& executor);

 private:
  CarveConfig config_;
};

/// The "Simple Convex" (SC) baseline of Section V-C: Kondo's fuzzer combined
/// with a single regular convex-hull computation — no cells, no merging.
CarvedSubset SimpleConvexCarve(const IndexSet& points);

}  // namespace kondo

#endif  // KONDO_CARVE_CARVER_H_
