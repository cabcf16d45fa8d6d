#include "array/debloated_array.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace kondo {

DebloatedArray DebloatedArray::FromDataArray(const DataArray& array,
                                             const IndexSet& retained) {
  KONDO_CHECK(retained.empty() || retained.shape() == array.shape());
  DebloatedArray result;
  result.shape_ = array.shape();
  result.dtype_ = array.dtype();
  const int64_t n = result.shape_.NumElements();
  result.bitmap_.assign(static_cast<size_t>((n + 63) / 64), 0);
  result.packed_values_.reserve(retained.size());
  retained.ForEachRun([&result, &array](int64_t begin, int64_t end) {
    for (int64_t id = begin; id < end; ++id) {
      result.packed_values_.push_back(array.AtLinear(id));
    }
    // Set bits [begin, end) a word at a time.
    while (begin < end) {
      const int64_t bit = begin % 64;
      const int64_t count = std::min<int64_t>(64 - bit, end - begin);
      const uint64_t ones =
          count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
      result.bitmap_[static_cast<size_t>(begin / 64)] |= ones << bit;
      begin += count;
    }
  });
  result.retained_count_ = static_cast<int64_t>(result.packed_values_.size());
  result.RebuildRankDirectory();
  return result;
}

void DebloatedArray::RebuildRankDirectory() {
  block_ranks_.assign(bitmap_.size() + 1, 0);
  for (size_t w = 0; w < bitmap_.size(); ++w) {
    block_ranks_[w + 1] = block_ranks_[w] + std::popcount(bitmap_[w]);
  }
}

bool DebloatedArray::IsRetained(const Index& index) const {
  if (!shape_.Contains(index)) {
    return false;
  }
  const int64_t linear = shape_.Linearize(index);
  return (bitmap_[static_cast<size_t>(linear / 64)] >> (linear % 64)) & 1;
}

int64_t DebloatedArray::PackedPosition(int64_t linear) const {
  const size_t word = static_cast<size_t>(linear / 64);
  const uint64_t mask = (uint64_t{1} << (linear % 64)) - 1;
  return block_ranks_[word] + std::popcount(bitmap_[word] & mask);
}

StatusOr<double> DebloatedArray::At(const Index& index) const {
  if (!shape_.Contains(index)) {
    return OutOfRangeError("index out of bounds");
  }
  const int64_t linear = shape_.Linearize(index);
  if (((bitmap_[static_cast<size_t>(linear / 64)] >> (linear % 64)) & 1) ==
      0) {
    return DataMissingError("access to debloated (Null) index " +
                            index.ToString());
  }
  return packed_values_[static_cast<size_t>(PackedPosition(linear))];
}

int64_t DebloatedArray::OriginalPayloadBytes() const {
  return shape_.NumElements() * DTypeSize(dtype_);
}

int64_t DebloatedArray::DebloatedPayloadBytes() const {
  return static_cast<int64_t>(bitmap_.size()) * 8 +
         retained_count_ * DTypeSize(dtype_);
}

double DebloatedArray::SizeReductionFraction() const {
  const double original = static_cast<double>(OriginalPayloadBytes());
  if (original <= 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(DebloatedPayloadBytes()) / original;
}

}  // namespace kondo
