#ifndef KONDO_ARRAY_INDEX_SET_H_
#define KONDO_ARRAY_INDEX_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "array/index.h"
#include "array/shape.h"

namespace kondo {

/// A set of array indices over a fixed shape — the `I_v` / `I_Θ` objects of
/// Section III.
///
/// Representation: the row-major linear ids of the members, stored as a
/// sorted vector of disjoint, non-touching half-open runs [begin, end)
/// plus a cached element count. Accessed regions of array programs are
/// rows, faces and boxes, so a set of n ids is usually far fewer than n
/// runs (the run encoding of Zhao–Krishnan's array-lineage compression).
/// With r = runs of this set and s = runs of `other`:
///
///   Insert / InsertLinear / InsertRun   O(1) amortised when ascending
///                                       (at or past the last run),
///                                       O(log r + r) otherwise;
///   Contains / ContainsLinear           O(log r);
///   Union                               O(s log(r/s)) when `other` is
///                                       already contained (no allocation),
///                                       else one O(r + s) merge;
///   Difference                          O(r log(s/r)) plus its output;
///   IntersectionSize                    O(r + s);
///   IsSubsetOf                          O(r log(s/r));
///   size / empty                        O(1);
///   ForEach / ForEachRun                O(n) / O(r), ascending, no sort.
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
  bool ContainsLinear(int64_t linear) const;

  size_t size() const { return static_cast<size_t>(size_); }
  bool empty() const { return size_ == 0; }

  /// Number of maximal runs of consecutive ids: the storage size, and the
  /// cost of a merging Union.
  size_t num_runs() const { return runs_.size(); }

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
    for (const Run& run : runs_) {
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
    for (const Run& run : runs_) {
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
  struct Run {
    int64_t begin;
    int64_t end;
  };

  /// Inserts [begin, end) at its sorted position (the out-of-order path).
  void InsertRunSlow(int64_t begin, int64_t end);

  /// Checks that set operations combine sets over the same shape.
  void CheckSameShape(const IndexSet& other) const;

  Shape shape_;
  std::vector<Run> runs_;  // Sorted, disjoint, non-touching.
  int64_t size_ = 0;       // Sum of run lengths.
};

/// Collects ids in any order, then sorts and coalesces them once in
/// `Build()`. Each insert extends the last or second-to-last run when the
/// id continues it, so ascending streams and two interleaved ascending
/// streams (the two faces a stencil reads in one loop) stay compact;
/// duplicates are allowed. Pending runs are coalesced whenever they double,
/// so a stream that re-reads scattered elements needs memory in proportion
/// to the distinct runs, as a hash set would, not to the reads.
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
  void Append(int64_t begin, int64_t end);
  void Coalesce();

  Shape shape_;
  std::vector<Run> runs_;  // Any order; may overlap.
  size_t coalesce_at_ = kMinCoalesceRuns;

  static constexpr size_t kMinCoalesceRuns = size_t{1} << 16;
};

}  // namespace kondo

#endif  // KONDO_ARRAY_INDEX_SET_H_
