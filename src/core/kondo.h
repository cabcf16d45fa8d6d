#ifndef KONDO_CORE_KONDO_H_
#define KONDO_CORE_KONDO_H_

#include <cstdint>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "carve/carve_config.h"
#include "carve/carved_subset.h"
#include "carve/carver.h"
#include "core/debloat_test.h"
#include "fuzz/fuzz_config.h"
#include "fuzz/fuzz_schedule.h"
#include "workloads/program.h"

namespace kondo {

/// End-to-end pipeline configuration: the Fig. 5 fuzz + carve parameters
/// plus the RNG seed for the campaign.
struct KondoConfig {
  FuzzConfig fuzz;
  CarveConfig carve;
  uint64_t rng_seed = 1;

  /// Worker threads for debloat-test execution (src/exec/). Any value
  /// produces bit-identical campaign results (tested points, discovered
  /// offsets, carved hulls) to `jobs = 1`; only wall-clock time changes.
  int jobs = 1;

  /// Campaign shards for multi-file runs (src/shard/): RunMultiFileKondo
  /// runs this many; the merged result is bit-identical to `shards = 1`
  /// at every jobs setting.
  int shards = 1;
};

/// Output of one Kondo run: the fuzz campaign, the carved hulls, and the
/// rasterised approximation `I'_Θ`.
struct KondoResult {
  FuzzResult fuzz;
  CarveStats carve_stats;
  CarvedSubset carved;
  IndexSet approx;  // I'_Θ: integer points covered by the carved hulls.
  double fuzz_seconds = 0.0;
  double carve_seconds = 0.0;
  double rasterize_seconds = 0.0;
};

/// The Kondo system of Fig. 3: sample-and-fuzz the parameter space with
/// audited debloat tests, carve the discovered index points into convex
/// hulls, and rasterise the hulls into the approximated data subset.
class KondoPipeline {
 public:
  explicit KondoPipeline(KondoConfig config) : config_(config) {}

  const KondoConfig& config() const { return config_; }

  /// Runs the pipeline on `program` using the fast offset-printing debloat
  /// test.
  KondoResult Run(const Program& program) const;

  /// Runs the pipeline with an explicit debloat test over (`space`,
  /// `shape`) — e.g. a fully audited test from MakeAuditedDebloatTest.
  KondoResult RunWithTest(const DebloatTestFn& test, const ParamSpace& space,
                          const Shape& shape) const;

  /// Runs the pipeline with a candidate-aware test fanned out across
  /// `config().jobs` workers. When `collector` is non-null, consumed test
  /// outcomes (and their lineage logs) are funnelled through it in
  /// candidate order — the single-writer channel that keeps on-disk
  /// lineage identical to the serial path.
  KondoResult RunWithCandidateTest(const CandidateTestFn& test,
                                   const ParamSpace& space,
                                   const Shape& shape,
                                   ResultCollector* collector = nullptr) const;

 private:
  KondoConfig config_;
};

/// Packages the debloated data array `D_Θ` (Definition 1) from the original
/// array and an approximated index subset.
DebloatedArray PackageDebloated(const DataArray& array,
                                const IndexSet& approx);

/// The Fig. 5 default configuration with every length-valued knob (mutation
/// frames, cluster diameter, cell size, merge thresholds) scaled by
/// max_extent / 128. The paper's constants were tuned for its default
/// 128x128 file; on larger arrays the same campaign must mutate and merge
/// at proportionally larger scales (cf. §V-D4, where parameter ranges are
/// set to the dataset size).
KondoConfig ScaledKondoConfig(const Shape& shape);

}  // namespace kondo

#endif  // KONDO_CORE_KONDO_H_
