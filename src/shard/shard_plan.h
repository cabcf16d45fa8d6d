#ifndef KONDO_SHARD_SHARD_PLAN_H_
#define KONDO_SHARD_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "array/shape.h"
#include "common/statusor.h"

namespace kondo {

/// A contiguous run of one file's row-major linear ids, [begin, end) in the
/// file's own linear space. Slices are the planner's unit of assignment: a
/// shard owns one or more slices and collects exactly the index points that
/// fall inside them.
struct ShardSlice {
  int file = 0;
  int64_t begin = 0;
  int64_t end = 0;

  int64_t NumElements() const { return end - begin; }

  template <class V>
  void Fields(V& v) {
    v(file, begin, end);
  }

  friend bool operator==(const ShardSlice& a, const ShardSlice& b) {
    return a.file == b.file && a.begin == b.begin && a.end == b.end;
  }
};

/// One schedulable campaign unit: an id (dense, 0-based, also the shard's
/// position in every per-shard artefact naming scheme) plus its slices.
struct Shard {
  int id = 0;
  std::vector<ShardSlice> slices;

  int64_t NumElements() const;
};

/// The planner's output: the application's file geometry (shapes plus the
/// combined-index-space offsets every campaign shares) and an ordered,
/// exact partition of the concatenated per-file linear spaces into shards.
struct ShardPlan {
  std::vector<Shape> file_shapes;
  /// offsets[f] is file f's base in the combined space;
  /// offsets[num_files] is the combined element count.
  std::vector<int64_t> offsets;
  std::vector<Shard> shards;

  int num_files() const { return static_cast<int>(file_shapes.size()); }
  int num_shards() const { return static_cast<int>(shards.size()); }
  /// The synthetic 1-D combined index space the fuzz schedule runs over.
  Shape combined_shape() const { return Shape({offsets.back()}); }
};

/// Per-element access-density weights steering the planner (empty = the
/// uniform, element-count-balanced default). `per_file[f][i]` is the
/// relative cost of file f's linear element i — typically observed access
/// density from a pilot campaign or a prior lineage store (see
/// WeightsFromLineageStore, shard/plan_weights.h). Every weight must be
/// finite and positive; exactly-uniform weights reproduce the unweighted
/// plan bit for bit (the planner detects uniformity and takes the
/// integer-exact path).
struct PlanWeights {
  std::vector<std::vector<double>> per_file;

  bool empty() const { return per_file.empty(); }

  /// Sum of file `f`'s element weights.
  double FileWeight(int f) const;

  /// True when every element of every file carries the same weight (or the
  /// weights are empty).
  bool IsUniform() const;
};

/// Partitions `file_shapes` into (at most) `shards` shards:
///  * `shards == num_files`: one file per shard (the default partition);
///  * `shards < num_files`: contiguous file groups balanced by element
///    count, every shard receiving at least one whole file;
///  * `shards > num_files`: large files are split into contiguous
///    chunk ranges — each extra split goes to the file with the most
///    elements per current split (ties to the lowest ordinal), and a file
///    is never split into more ranges than it has elements, so the plan may
///    come back with fewer shards than requested when the arrays are tiny.
///
/// The result is deterministic (a pure function of shapes and `shards`) and
/// always an exact partition: every linear id of every file belongs to
/// exactly one slice of exactly one shard. Returns kInvalidArgument for
/// `shards <= 0` or an empty/degenerate file list.
StatusOr<ShardPlan> PlanShards(const std::vector<Shape>& file_shapes,
                               int shards);

/// Access-balanced planning: like the overload above, but balances shards
/// by summed element *weight* instead of raw element count — the fix for
/// the CLIMATE-style skew where one file concentrates nearly all observed
/// accesses. Grouping (shards < files) targets equal cumulative weight per
/// group; splitting (shards > files) gives each extra split to the file
/// with the highest weight per split and places split boundaries at weight
/// quantiles (clamped so every range keeps at least one element). The
/// partition invariant (exact tiling) is unchanged — only the boundaries
/// move, so a merged campaign over a weighted plan is still bit-identical
/// to any other plan of the same files. Empty or uniform `weights` defer
/// to the unweighted planner; malformed weights (size mismatch,
/// non-finite, or <= 0 entries) are kInvalidArgument.
StatusOr<ShardPlan> PlanShards(const std::vector<Shape>& file_shapes,
                               int shards, const PlanWeights& weights);

/// Verifies the partition invariant (used by tests and by the scheduler
/// when re-validating a manifest against a freshly computed plan).
Status ValidateShardPlan(const ShardPlan& plan);

}  // namespace kondo

#endif  // KONDO_SHARD_SHARD_PLAN_H_
