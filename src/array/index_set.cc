#include "array/index_set.h"

#include "common/logging.h"

namespace kondo {

void IndexSet::CheckSameShape(const IndexSet& other) const {
  KONDO_CHECK(empty() || other.empty() || shape_ == other.shape_)
      << "IndexSet shapes differ: " << shape_ << " vs " << other.shape_;
}

void IndexSet::Insert(const Index& index) {
  if (shape_.Contains(index)) {
    InsertLinear(shape_.Linearize(index));
  }
}

void IndexSet::InsertLinear(int64_t linear) {
  KONDO_CHECK_GE(linear, 0);
  KONDO_CHECK_LT(linear, shape_.NumElements());
  ids_.Add(linear, linear + 1);
}

void IndexSet::InsertRun(int64_t begin, int64_t end) {
  KONDO_CHECK_GE(begin, 0);
  KONDO_CHECK_LE(begin, end);
  KONDO_CHECK_LE(end, shape_.NumElements());
  ids_.Add(begin, end);
}

bool IndexSet::Contains(const Index& index) const {
  return shape_.Contains(index) && ContainsLinear(shape_.Linearize(index));
}

void IndexSet::Union(const IndexSet& other) {
  if (other.empty()) {
    return;
  }
  if (empty() && shape_.rank() == 0) {
    shape_ = other.shape_;
  }
  KONDO_CHECK(shape_ == other.shape_);
  ids_.Union(other.ids_);
}

IndexSet IndexSet::Difference(const IndexSet& other) const {
  CheckSameShape(other);
  return IndexSet(shape_, ids_.Difference(other.ids_));
}

int64_t IndexSet::IntersectionSize(const IndexSet& other) const {
  CheckSameShape(other);
  return ids_.IntersectionLength(other.ids_);
}

bool IndexSet::IsSubsetOf(const IndexSet& other) const {
  CheckSameShape(other);
  return ids_.IsSubsetOf(other.ids_);
}

std::vector<Index> IndexSet::ToIndices() const {
  std::vector<Index> result;
  result.reserve(size());
  ForEach([&result](const Index& index) { result.push_back(index); });
  return result;
}

std::vector<int64_t> IndexSet::ToSortedLinearIds() const {
  std::vector<int64_t> result;
  result.reserve(size());
  ForEachRun([&result](int64_t begin, int64_t end) {
    for (int64_t id = begin; id < end; ++id) {
      result.push_back(id);
    }
  });
  return result;
}

void IndexSet::Builder::Insert(const Index& index) {
  if (shape_.Contains(index)) {
    const int64_t linear = shape_.Linearize(index);
    ids_.Add(linear, linear + 1);
  }
}

void IndexSet::Builder::InsertLinear(int64_t linear) {
  KONDO_CHECK_GE(linear, 0);
  KONDO_CHECK_LT(linear, shape_.NumElements());
  ids_.Add(linear, linear + 1);
}

void IndexSet::Builder::InsertRun(int64_t begin, int64_t end) {
  KONDO_CHECK_GE(begin, 0);
  KONDO_CHECK_LE(begin, end);
  KONDO_CHECK_LE(end, shape_.NumElements());
  ids_.Add(begin, end);
}

IndexSet IndexSet::Builder::Build() {
  return IndexSet(shape_, ids_.Build());
}

}  // namespace kondo
