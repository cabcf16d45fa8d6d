#ifndef KONDO_COMMON_INTERVAL_SET_H_
#define KONDO_COMMON_INTERVAL_SET_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace kondo {

/// A half-open byte/index interval [begin, end).
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t length() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool Contains(int64_t x) const { return begin <= x && x < end; }
  bool Overlaps(const Interval& other) const {
    return begin < other.end && other.begin < end;
  }
  /// True when the intervals overlap or touch (can be coalesced).
  bool Touches(const Interval& other) const {
    return begin <= other.end && other.begin <= end;
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

std::ostream& operator<<(std::ostream& os, const Interval& interval);

/// A set of int64 values stored as sorted, disjoint, non-touching
/// half-open runs [begin, end) — the one run set of the code base. The
/// audit layer merges I/O events into accessed byte ranges with it (the
/// paper's worked example, events e1(0,110), e2(70,30), e3(130,20),
/// e4(90,30), coalesces to [0,120) and [130,150)), and `IndexSet` stores
/// I_v and I_Θ as runs of linear ids in one (the run encoding of
/// Zhao–Krishnan's array-lineage compression).
///
/// Representation: a sorted vector of runs plus the cached total length.
/// With r = runs of this set and s = runs of `other`:
///
///   Add                        O(1) amortised when ascending (at or past
///                              the last run), O(log r + r) otherwise;
///   Contains / ContainsRange /
///   Intersects                 O(log r);
///   Union                      O(s log(r/s)) when `other` is already
///                              contained (no allocation), else one
///                              O(r + s) merge;
///   Difference                 O(r log(s/r)) plus its output;
///   IntersectionLength         O(r + s);
///   IsSubsetOf                 O(r log(s/r));
///   size / TotalLength         O(1).
///
/// A stream that is not ascending (events in arrival order, a store whose
/// order restarts per run) must go through `IntervalSet::Builder`, which
/// sorts and coalesces once; repeated out-of-order `Add`s are quadratic.
class IntervalSet {
 public:
  class Builder;

  IntervalSet() = default;

  /// Inserts [begin, end); overlapping or adjacent intervals are coalesced.
  /// Empty intervals are ignored.
  void Add(int64_t begin, int64_t end);
  void Add(const Interval& interval) { Add(interval.begin, interval.end); }

  /// Adds every interval of `other`.
  void Union(const IntervalSet& other);

  /// The values of this set that `other` lacks.
  IntervalSet Difference(const IntervalSet& other) const;

  /// Number of values present in both sets.
  int64_t IntersectionLength(const IntervalSet& other) const;

  /// True when every value of this set is contained in `other`.
  bool IsSubsetOf(const IntervalSet& other) const;

  /// True if `x` lies inside some interval.
  bool Contains(int64_t x) const;

  /// True if [begin, end) is fully covered.
  bool ContainsRange(int64_t begin, int64_t end) const;

  /// True if [begin, end) overlaps any interval.
  bool Intersects(int64_t begin, int64_t end) const;

  /// Number of disjoint intervals.
  size_t size() const { return runs_.size(); }
  bool empty() const { return runs_.empty(); }

  /// Total covered length (sum of interval lengths).
  int64_t TotalLength() const { return static_cast<int64_t>(length_); }

  /// The disjoint intervals in increasing order.
  const std::vector<Interval>& ToIntervals() const { return runs_; }

  /// Renders e.g. "[0,120) [130,150)".
  std::string ToString() const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.runs_ == b.runs_;
  }

 private:
  /// Takes sorted, disjoint, non-touching runs.
  explicit IntervalSet(std::vector<Interval> runs);

  /// Inserts [begin, end) at its sorted position (the out-of-order path).
  void AddSlow(int64_t begin, int64_t end);

  std::vector<Interval> runs_;  // Sorted, disjoint, non-touching.
  // Sum of run lengths, in uint64: disjoint runs of int64 values total at
  // most 2^64 - 1, so it never wraps.
  uint64_t length_ = 0;
};

/// Collects intervals in any order, then sorts and coalesces them once in
/// `Build()`. Each add extends the last or second-to-last run when the
/// interval continues it, so ascending streams and two interleaved
/// ascending streams (the two faces a stencil reads in one loop) stay
/// compact; overlaps are allowed. Pending runs are coalesced whenever they
/// double, so a stream that re-reads scattered values needs memory in
/// proportion to the distinct runs, as a hash set would, not to the reads.
class IntervalSet::Builder {
 public:
  /// As IntervalSet::Add: empty intervals are ignored.
  void Add(int64_t begin, int64_t end);
  void Add(const Interval& interval) { Add(interval.begin, interval.end); }

  /// Returns the set of every added interval and leaves the builder empty.
  IntervalSet Build();

 private:
  void Coalesce();

  std::vector<Interval> runs_;  // Any order; may overlap.
  size_t coalesce_at_ = kMinCoalesceRuns;

  static constexpr size_t kMinCoalesceRuns = size_t{1} << 16;
};

}  // namespace kondo

#endif  // KONDO_COMMON_INTERVAL_SET_H_
