#include "common/interval_set.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace kondo {
namespace {

/// end - begin without overflow, for any begin <= end.
uint64_t RunLength(int64_t begin, int64_t end) {
  return static_cast<uint64_t>(end) - static_cast<uint64_t>(begin);
}

/// First position p >= from with runs[p].end >= end, found by exponential
/// search from `from`: O(log distance), so a sorted sweep of probes costs
/// O(s log(r/s)) in total rather than O(r).
size_t GallopToEnd(const std::vector<Interval>& runs, size_t from,
                   int64_t end) {
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < runs.size() && runs[hi].end < end) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, runs.size());
  return static_cast<size_t>(
      std::lower_bound(runs.begin() + static_cast<std::ptrdiff_t>(lo),
                       runs.begin() + static_cast<std::ptrdiff_t>(hi), end,
                       [](const Interval& run, int64_t value) {
                         return run.end < value;
                       }) -
      runs.begin());
}

/// True when every run of `inner` lies inside a run of `outer` (both
/// sorted, disjoint and non-touching, so a contained run lies inside the
/// first outer run that ends at or after it).
bool RunsContained(const std::vector<Interval>& inner,
                   const std::vector<Interval>& outer) {
  size_t pos = 0;
  for (const Interval& run : inner) {
    pos = GallopToEnd(outer, pos, run.end);
    if (pos == outer.size() || outer[pos].begin > run.begin) {
      return false;
    }
  }
  return true;
}

/// The first run ending after `x`: the only one that can hold `x`.
std::vector<Interval>::const_iterator FirstEndingAfter(
    const std::vector<Interval>& runs, int64_t x) {
  return std::upper_bound(
      runs.begin(), runs.end(), x,
      [](int64_t value, const Interval& run) { return value < run.end; });
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const Interval& interval) {
  return os << "[" << interval.begin << "," << interval.end << ")";
}

IntervalSet::IntervalSet(std::vector<Interval> runs) : runs_(std::move(runs)) {
  for (const Interval& run : runs_) {
    length_ += RunLength(run.begin, run.end);
  }
}

void IntervalSet::Add(int64_t begin, int64_t end) {
  if (end <= begin) {
    return;
  }
  if (runs_.empty() || begin > runs_.back().end) {
    runs_.push_back(Interval{begin, end});
    length_ += RunLength(begin, end);
  } else if (begin >= runs_.back().begin) {
    if (end > runs_.back().end) {
      length_ += RunLength(runs_.back().end, end);
      runs_.back().end = end;
    }
  } else {
    AddSlow(begin, end);
  }
}

void IntervalSet::AddSlow(int64_t begin, int64_t end) {
  // The runs [first, last) overlap or touch [begin, end) and fold into it.
  auto first = std::lower_bound(
      runs_.begin(), runs_.end(), begin,
      [](const Interval& run, int64_t value) { return run.end < value; });
  auto last = first;
  uint64_t folded = 0;
  while (last != runs_.end() && last->begin <= end) {
    begin = std::min(begin, last->begin);
    end = std::max(end, last->end);
    folded += RunLength(last->begin, last->end);
    ++last;
  }
  length_ += RunLength(begin, end) - folded;
  if (first == last) {
    runs_.insert(first, Interval{begin, end});
  } else {
    *first = Interval{begin, end};
    runs_.erase(first + 1, last);
  }
}

void IntervalSet::Union(const IntervalSet& other) {
  if (other.empty()) {
    return;
  }
  if (empty() || other.runs_.front().begin > runs_.back().end) {
    runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
    length_ += other.length_;
    return;
  }
  if (other.length_ <= length_ && RunsContained(other.runs_, runs_)) {
    return;
  }

  // One merge by run begin. Between two runs of `other`, the runs of this
  // set that end before the next one starts are copied in bulk, found by
  // galloping, so a sparse `other` costs O(s log(r/s)) probes plus copies.
  std::vector<Interval> merged;
  merged.reserve(runs_.size() + other.runs_.size());
  auto push = [&merged](const Interval& run) {
    if (!merged.empty() && run.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, run.end);
    } else {
      merged.push_back(run);
    }
  };
  size_t pos = 0;
  auto copy_until = [this, &merged, &push, &pos](size_t stop) {
    // runs_[pos, stop) are disjoint and non-touching: only the first few
    // can fold into the merged tail, the rest append as they are.
    while (pos < stop && !merged.empty() &&
           runs_[pos].begin <= merged.back().end) {
      push(runs_[pos++]);
    }
    merged.insert(merged.end(),
                  runs_.begin() + static_cast<std::ptrdiff_t>(pos),
                  runs_.begin() + static_cast<std::ptrdiff_t>(stop));
    pos = stop;
  };
  for (const Interval& run : other.runs_) {
    // Copy every run that starts before `run`: all of them end before
    // run.begin except possibly the one at the galloped position.
    size_t stop = GallopToEnd(runs_, pos, run.begin);
    if (stop < runs_.size() && runs_[stop].begin < run.begin) {
      ++stop;
    }
    copy_until(stop);
    push(run);
  }
  copy_until(runs_.size());
  *this = IntervalSet(std::move(merged));
}

IntervalSet IntervalSet::Difference(const IntervalSet& other) const {
  std::vector<Interval> result;
  size_t pos = 0;
  for (const Interval& run : runs_) {
    // The runs of `other` that cut into `run`, from the first one that
    // ends past its start; the pieces between them remain.
    int64_t begin = run.begin;
    pos = GallopToEnd(other.runs_, pos, begin + 1);
    while (begin < run.end) {
      if (pos == other.runs_.size() || other.runs_[pos].begin >= run.end) {
        result.push_back(Interval{begin, run.end});
        break;
      }
      const Interval& cut = other.runs_[pos];
      if (cut.begin > begin) {
        result.push_back(Interval{begin, cut.begin});
      }
      begin = cut.end;
      if (cut.end > run.end) {
        break;  // `cut` may reach into the next run too.
      }
      ++pos;
    }
  }
  return IntervalSet(std::move(result));
}

int64_t IntervalSet::IntersectionLength(const IntervalSet& other) const {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < runs_.size() && j < other.runs_.size()) {
    const Interval& a = runs_[i];
    const Interval& b = other.runs_[j];
    const int64_t begin = std::max(a.begin, b.begin);
    count += RunLength(begin, std::max(begin, std::min(a.end, b.end)));
    if (a.end < b.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<int64_t>(count);
}

bool IntervalSet::IsSubsetOf(const IntervalSet& other) const {
  return length_ <= other.length_ && RunsContained(runs_, other.runs_);
}

bool IntervalSet::Contains(int64_t x) const {
  auto it = FirstEndingAfter(runs_, x);
  return it != runs_.end() && it->begin <= x;
}

bool IntervalSet::ContainsRange(int64_t begin, int64_t end) const {
  if (end <= begin) {
    return true;
  }
  auto it = FirstEndingAfter(runs_, begin);
  return it != runs_.end() && it->begin <= begin && end <= it->end;
}

bool IntervalSet::Intersects(int64_t begin, int64_t end) const {
  if (end <= begin) {
    return false;
  }
  auto it = FirstEndingAfter(runs_, begin);
  return it != runs_.end() && it->begin < end;
}

std::string IntervalSet::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < runs_.size(); ++i) {
    os << (i == 0 ? "" : " ") << runs_[i];
  }
  return os.str();
}

void IntervalSet::Builder::Add(int64_t begin, int64_t end) {
  if (end <= begin) {
    return;
  }
  auto extend = [begin, end](Interval& run) {
    if (begin < run.begin || begin > run.end) {
      return false;
    }
    run.end = std::max(run.end, end);
    return true;
  };
  const size_t n = runs_.size();
  if ((n >= 1 && extend(runs_[n - 1])) || (n >= 2 && extend(runs_[n - 2]))) {
    return;
  }
  runs_.push_back(Interval{begin, end});
  if (runs_.size() >= coalesce_at_) {
    Coalesce();
    coalesce_at_ = std::max(kMinCoalesceRuns, 2 * runs_.size());
  }
}

void IntervalSet::Builder::Coalesce() {
  auto by_begin = [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  };
  if (!std::is_sorted(runs_.begin(), runs_.end(), by_begin)) {
    std::sort(runs_.begin(), runs_.end(), by_begin);
  }
  size_t kept = 0;
  for (const Interval& run : runs_) {
    if (kept > 0 && run.begin <= runs_[kept - 1].end) {
      runs_[kept - 1].end = std::max(runs_[kept - 1].end, run.end);
    } else {
      runs_[kept++] = run;
    }
  }
  runs_.resize(kept);
}

IntervalSet IntervalSet::Builder::Build() {
  Coalesce();
  IntervalSet set(std::move(runs_));
  runs_.clear();
  coalesce_at_ = kMinCoalesceRuns;
  return set;
}

}  // namespace kondo
