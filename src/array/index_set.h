#ifndef KONDO_ARRAY_INDEX_SET_H_
#define KONDO_ARRAY_INDEX_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "array/index.h"
#include "array/shape.h"
#include "common/interval_set.h"

namespace kondo {

/// A set of array indices over a fixed shape — the `I_v` / `I_Θ` objects of
/// Section III.
///
/// Representation: an `IntervalSet` of the members' row-major linear ids.
/// Accessed regions of array programs are rows, faces and boxes, so a set
/// of n ids is usually far fewer than n runs; the costs are IntervalSet's,
/// with `size` the element count and `num_runs` its number of runs. This
/// class adds only what a shape brings: bounds checks, the shape check of
/// set operations (an empty set of any shape is exempt, and an unshaped
/// empty set adopts the shape of what is unioned into it), and the
/// conversion between `Index` and linear id.
///
/// Streams that are not ascending (a program's reads, a decoded file)
/// should go through `IndexSet::Builder`, which sorts and coalesces once.
class IndexSet {
 public:
  class Builder;

  IndexSet() = default;
  explicit IndexSet(Shape shape) : shape_(std::move(shape)) {}

  const Shape& shape() const { return shape_; }

  /// Inserts `index`; out-of-bounds indices are ignored (accesses outside
  /// the array are clipped, mirroring what an auditor would observe).
  void Insert(const Index& index);

  /// Inserts a linearised id. Requires 0 <= id < shape().NumElements().
  void InsertLinear(int64_t linear);

  /// Inserts the ids [begin, end). Requires 0 <= begin <= end <=
  /// shape().NumElements(); an empty run is a no-op.
  void InsertRun(int64_t begin, int64_t end);

  bool Contains(const Index& index) const;
  bool ContainsLinear(int64_t linear) const { return ids_.Contains(linear); }

  size_t size() const { return static_cast<size_t>(ids_.TotalLength()); }
  bool empty() const { return ids_.empty(); }

  /// Number of maximal runs of consecutive ids: the storage size, and the
  /// cost of a merging Union.
  size_t num_runs() const { return ids_.size(); }

  /// Adds all elements of `other` (shapes must match unless one is empty).
  void Union(const IndexSet& other);

  /// The elements of this set that `other` lacks (shapes must match unless
  /// one is empty).
  IndexSet Difference(const IndexSet& other) const;

  /// Number of elements present in both sets (shapes must match unless one
  /// is empty).
  int64_t IntersectionSize(const IndexSet& other) const;

  /// True when every element of this set is contained in `other` (shapes
  /// must match unless one is empty).
  bool IsSubsetOf(const IndexSet& other) const;

  /// Materialises the indices, in ascending linear-id order.
  std::vector<Index> ToIndices() const;

  /// Materialises the linear ids, sorted ascending.
  std::vector<int64_t> ToSortedLinearIds() const;

  /// Invokes `fn(begin, end)` for each maximal run of ids [begin, end), in
  /// ascending order.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    for (const Interval& run : ids_.ToIntervals()) {
      fn(run.begin, run.end);
    }
  }

  /// Invokes `fn(index)` for each member, in ascending linear-id order.
  ///
  /// The deterministic order is load-bearing: ForEach feeds carve-cell
  /// construction, offset mapping, and report rendering — paths whose
  /// artefacts must be bit-identical under replay. The runs are stored in
  /// that order, so nothing is sorted; within a run the index is stepped
  /// like an odometer instead of delinearising every id.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const int rank = shape_.rank();
    for (const Interval& run : ids_.ToIntervals()) {
      Index index = shape_.Delinearize(run.begin);
      for (int64_t id = run.begin; id < run.end; ++id) {
        fn(static_cast<const Index&>(index));
        for (int d = rank - 1; d >= 0; --d) {
          if (++index[d] < shape_.dim(d)) {
            break;
          }
          index[d] = 0;
        }
      }
    }
  }

 private:
  IndexSet(Shape shape, IntervalSet ids)
      : shape_(std::move(shape)), ids_(std::move(ids)) {}

  /// Checks that set operations combine sets over the same shape.
  void CheckSameShape(const IndexSet& other) const;

  Shape shape_;
  IntervalSet ids_;
};

/// An `IntervalSet::Builder` of linear ids that bounds-checks each insert
/// as the matching `IndexSet` insert does; ids may come in any order.
class IndexSet::Builder {
 public:
  explicit Builder(Shape shape) : shape_(std::move(shape)) {}

  /// As IndexSet::Insert: out-of-bounds indices are ignored.
  void Insert(const Index& index);

  /// As IndexSet::InsertLinear: requires 0 <= id < NumElements().
  void InsertLinear(int64_t linear);

  /// As IndexSet::InsertRun.
  void InsertRun(int64_t begin, int64_t end);

  /// Returns the set of every inserted id and leaves the builder empty.
  IndexSet Build();

 private:
  Shape shape_;
  IntervalSet::Builder ids_;
};

}  // namespace kondo

#endif  // KONDO_ARRAY_INDEX_SET_H_
