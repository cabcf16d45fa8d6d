#ifndef KONDO_ARRAY_SHAPE_H_
#define KONDO_ARRAY_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "array/index.h"
#include "common/statusor.h"

namespace kondo {

/// The logical coordinate space `I` of a data array: a rank and per-dimension
/// extents (Section III). Indices are valid when `0 <= i_d < dim(d)` for all
/// dimensions.
class Shape {
 public:
  Shape() = default;

  /// Constructs from explicit extents, e.g. Shape({128, 128}).
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int d) const { return dims_[d]; }
  const std::vector<int64_t>& dims() const { return dims_; }

  /// Total number of elements |I|.
  int64_t NumElements() const;

  /// True when `index` has matching rank and is within bounds.
  bool Contains(const Index& index) const;

  /// Row-major linearisation of `index`. Requires Contains(index).
  int64_t Linearize(const Index& index) const;

  /// Inverse of Linearize. Requires 0 <= linear < NumElements().
  Index Delinearize(int64_t linear) const;

  /// Invokes `fn(index)` for every index in row-major order.
  template <typename Fn>
  void ForEachIndex(Fn&& fn) const {
    const int64_t n = NumElements();
    for (int64_t linear = 0; linear < n; ++linear) {
      fn(Delinearize(linear));
    }
  }

  /// Renders e.g. "128x128".
  std::string ToString() const;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.dims_ == b.dims_;
  }

 private:
  std::vector<int64_t> dims_;
};

std::ostream& operator<<(std::ostream& os, const Shape& shape);

/// The one check of extents decoded from untrusted bytes (a file header, a
/// manifest line, a wire payload): rank 1..kMaxRank, every dim > 0 and an
/// element count that fits int64. kDataLoss prefixed with `what` otherwise.
StatusOr<Shape> DecodeShape(const std::vector<int64_t>& dims,
                            std::string_view what);

}  // namespace kondo

#endif  // KONDO_ARRAY_SHAPE_H_
