#include "array/shape.h"

#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace kondo {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) {
  KONDO_CHECK_LE(dims_.size(), static_cast<size_t>(kMaxRank));
  for (int64_t d : dims_) {
    KONDO_CHECK_GT(d, 0);
  }
}

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  KONDO_CHECK_LE(dims_.size(), static_cast<size_t>(kMaxRank));
  for (int64_t d : dims_) {
    KONDO_CHECK_GT(d, 0);
  }
}

int64_t Shape::NumElements() const {
  int64_t n = 1;
  for (int64_t d : dims_) {
    n *= d;
  }
  return n;
}

bool Shape::Contains(const Index& index) const {
  if (index.rank() != rank()) {
    return false;
  }
  for (int d = 0; d < rank(); ++d) {
    if (index[d] < 0 || index[d] >= dims_[d]) {
      return false;
    }
  }
  return true;
}

int64_t Shape::Linearize(const Index& index) const {
  KONDO_CHECK(Contains(index));
  int64_t linear = 0;
  for (int d = 0; d < rank(); ++d) {
    linear = linear * dims_[d] + index[d];
  }
  return linear;
}

Index Shape::Delinearize(int64_t linear) const {
  KONDO_CHECK_GE(linear, 0);
  KONDO_CHECK_LT(linear, NumElements());
  Index index(rank());
  for (int d = rank() - 1; d >= 0; --d) {
    index[d] = linear % dims_[d];
    linear /= dims_[d];
  }
  return index;
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Shape& shape) {
  for (int d = 0; d < shape.rank(); ++d) {
    if (d > 0) {
      os << "x";
    }
    os << shape.dim(d);
  }
  return os;
}

StatusOr<Shape> DecodeShape(const std::vector<int64_t>& dims,
                            std::string_view what) {
  if (dims.empty() || dims.size() > static_cast<size_t>(kMaxRank)) {
    return DataLossError(
        StrCat(what, ": rank ", dims.size(), " outside 1..", kMaxRank));
  }
  int64_t elements = 1;
  for (int64_t dim : dims) {
    if (dim <= 0) {
      return DataLossError(StrCat(what, ": non-positive dim ", dim));
    }
    if (elements > std::numeric_limits<int64_t>::max() / dim) {
      return DataLossError(StrCat(what, ": element count overflows int64"));
    }
    elements *= dim;
  }
  return Shape(dims);
}

}  // namespace kondo
