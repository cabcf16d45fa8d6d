#include "common/interval_set.h"

#include <algorithm>
#include <sstream>

namespace kondo {

std::ostream& operator<<(std::ostream& os, const Interval& interval) {
  return os << "[" << interval.begin << "," << interval.end << ")";
}

void IntervalSet::Add(int64_t begin, int64_t end) {
  if (end <= begin) {
    return;
  }
  // In-order fast path: at or past the last interval's start, only the
  // last interval can absorb [begin, end) and nothing follows it.
  if (intervals_.empty() || begin >= intervals_.rbegin()->first) {
    if (!intervals_.empty() && begin <= intervals_.rbegin()->second) {
      intervals_.rbegin()->second = std::max(intervals_.rbegin()->second, end);
    } else {
      intervals_.emplace_hint(intervals_.end(), begin, end);
    }
    return;
  }
  // Find the first interval whose begin is > `begin`, then step back to
  // check whether the predecessor absorbs or touches us.
  auto it = intervals_.upper_bound(begin);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      // Predecessor overlaps or touches: extend it instead.
      begin = prev->first;
      end = std::max(end, prev->second);
      it = intervals_.erase(prev);
    }
  }
  // Absorb all successors that overlap or touch [begin, end).
  while (it != intervals_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = intervals_.erase(it);
  }
  intervals_.emplace(begin, end);
}

void IntervalSet::Union(const IntervalSet& other) {
  for (const auto& [begin, end] : other.intervals_) {
    Add(begin, end);
  }
}

bool IntervalSet::Contains(int64_t x) const {
  auto it = intervals_.upper_bound(x);
  if (it == intervals_.begin()) {
    return false;
  }
  --it;
  return x < it->second;
}

bool IntervalSet::ContainsRange(int64_t begin, int64_t end) const {
  if (end <= begin) {
    return true;
  }
  auto it = intervals_.upper_bound(begin);
  if (it == intervals_.begin()) {
    return false;
  }
  --it;
  return begin >= it->first && end <= it->second;
}

bool IntervalSet::Intersects(int64_t begin, int64_t end) const {
  if (end <= begin) {
    return false;
  }
  auto it = intervals_.lower_bound(begin);
  if (it != intervals_.end() && it->first < end) {
    return true;
  }
  if (it == intervals_.begin()) {
    return false;
  }
  --it;
  return it->second > begin;
}

int64_t IntervalSet::TotalLength() const {
  int64_t total = 0;
  for (const auto& [begin, end] : intervals_) {
    total += end - begin;
  }
  return total;
}

std::vector<Interval> IntervalSet::ToIntervals() const {
  std::vector<Interval> result;
  result.reserve(intervals_.size());
  for (const auto& [begin, end] : intervals_) {
    result.push_back(Interval{begin, end});
  }
  return result;
}

std::string IntervalSet::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [begin, end] : intervals_) {
    if (!first) {
      os << " ";
    }
    first = false;
    os << Interval{begin, end};
  }
  return os.str();
}

}  // namespace kondo
