#ifndef KONDO_ARRAY_DEBLOATED_ARRAY_H_
#define KONDO_ARRAY_DEBLOATED_ARRAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/index_set.h"
#include "common/status.h"
#include "common/statusor.h"

namespace kondo {

/// The debloated data array `D_Θ` of Definition 1: the same logical shape as
/// `D`, equal to `D` on a retained index subset and Null everywhere else.
///
/// Physical representation: a membership bitmap over the index space plus a
/// densely packed payload holding only retained values (with a per-block
/// popcount directory for O(1) rank lookups). Accessing a Null index yields
/// the paper's "data missing" exception as `StatusCode::kDataMissing`.
/// This is the in-memory type only; on disk `D_Θ` ships as a KDP package
/// (src/pack/pack_writer.h, read back through PackReader).
class DebloatedArray {
 public:
  /// Builds `D_Θ` from `array` by retaining exactly the indices in
  /// `retained` (out-of-shape members are impossible by IndexSet
  /// construction). `retained.shape()` must equal `array.shape()`.
  static DebloatedArray FromDataArray(const DataArray& array,
                                      const IndexSet& retained);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }

  /// True when `index` carries data (is non-Null).
  bool IsRetained(const Index& index) const;

  /// Returns the value at `index`, or kDataMissing for Null entries and
  /// kOutOfRange for indices outside the shape.
  StatusOr<double> At(const Index& index) const;

  /// Number of retained (non-Null) elements.
  int64_t retained_count() const { return retained_count_; }

  /// Bytes of the original dense payload at this dtype.
  int64_t OriginalPayloadBytes() const;

  /// Bytes of the debloated representation (bitmap + packed payload).
  int64_t DebloatedPayloadBytes() const;

  /// Fraction of payload eliminated, `1 - debloated/original`.
  double SizeReductionFraction() const;

 private:
  DebloatedArray() = default;

  void RebuildRankDirectory();
  /// Packed payload position of `linear`, assuming the bit is set.
  int64_t PackedPosition(int64_t linear) const;

  Shape shape_;
  DType dtype_ = DType::kFloat128;
  std::vector<uint64_t> bitmap_;      // NumElements bits, little-endian words.
  std::vector<int64_t> block_ranks_;  // Popcount of all words before word i.
  std::vector<double> packed_values_;
  int64_t retained_count_ = 0;
};

}  // namespace kondo

#endif  // KONDO_ARRAY_DEBLOATED_ARRAY_H_
