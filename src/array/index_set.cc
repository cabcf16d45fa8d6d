#include "array/index_set.h"

#include <algorithm>

#include "common/logging.h"

namespace kondo {
namespace {

/// First position p >= from with runs[p].end >= end, found by exponential
/// search from `from`: O(log distance), so a sorted sweep of probes costs
/// O(s log(r/s)) in total rather than O(r).
template <typename Run>
size_t GallopToEnd(const std::vector<Run>& runs, size_t from, int64_t end) {
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
                       [](const Run& run, int64_t value) {
                         return run.end < value;
                       }) -
      runs.begin());
}

/// True when every run of `inner` lies inside a run of `outer` (both
/// sorted, disjoint and non-touching, so a contained run lies inside the
/// first outer run that ends at or after it).
template <typename Run>
bool RunsContained(const std::vector<Run>& inner,
                   const std::vector<Run>& outer) {
  size_t pos = 0;
  for (const Run& run : inner) {
    pos = GallopToEnd(outer, pos, run.end);
    if (pos == outer.size() || outer[pos].begin > run.begin) {
      return false;
    }
  }
  return true;
}

}  // namespace

void IndexSet::CheckSameShape(const IndexSet& other) const {
  KONDO_CHECK(empty() || other.empty() || shape_ == other.shape_)
      << "IndexSet shapes differ: " << shape_ << " vs " << other.shape_;
}

void IndexSet::Insert(const Index& index) {
  if (!shape_.Contains(index)) {
    return;
  }
  InsertLinear(shape_.Linearize(index));
}

void IndexSet::InsertLinear(int64_t linear) {
  KONDO_CHECK_GE(linear, 0);
  KONDO_CHECK_LT(linear, shape_.NumElements());
  if (runs_.empty() || linear > runs_.back().end) {
    runs_.push_back(Run{linear, linear + 1});
    ++size_;
  } else if (linear == runs_.back().end) {
    ++runs_.back().end;
    ++size_;
  } else if (linear < runs_.back().begin) {
    InsertRunSlow(linear, linear + 1);
  }
}

void IndexSet::InsertRun(int64_t begin, int64_t end) {
  KONDO_CHECK_GE(begin, 0);
  KONDO_CHECK_LE(begin, end);
  KONDO_CHECK_LE(end, shape_.NumElements());
  if (begin == end) {
    return;
  }
  if (runs_.empty() || begin > runs_.back().end) {
    runs_.push_back(Run{begin, end});
    size_ += end - begin;
  } else if (begin >= runs_.back().begin) {
    if (end > runs_.back().end) {
      size_ += end - runs_.back().end;
      runs_.back().end = end;
    }
  } else {
    InsertRunSlow(begin, end);
  }
}

void IndexSet::InsertRunSlow(int64_t begin, int64_t end) {
  // The runs [first, last) overlap or touch [begin, end) and fold into it.
  auto first = std::lower_bound(
      runs_.begin(), runs_.end(), begin,
      [](const Run& run, int64_t value) { return run.end < value; });
  auto last = first;
  int64_t folded = 0;
  while (last != runs_.end() && last->begin <= end) {
    begin = std::min(begin, last->begin);
    end = std::max(end, last->end);
    folded += last->end - last->begin;
    ++last;
  }
  size_ += (end - begin) - folded;
  if (first == last) {
    runs_.insert(first, Run{begin, end});
  } else {
    *first = Run{begin, end};
    runs_.erase(first + 1, last);
  }
}

bool IndexSet::Contains(const Index& index) const {
  if (!shape_.Contains(index)) {
    return false;
  }
  return ContainsLinear(shape_.Linearize(index));
}

bool IndexSet::ContainsLinear(int64_t linear) const {
  // The first run ending past `linear` is the only one that can hold it.
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), linear,
      [](int64_t value, const Run& run) { return value < run.end; });
  return it != runs_.end() && it->begin <= linear;
}

void IndexSet::Union(const IndexSet& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    if (shape_.rank() == 0) {
      shape_ = other.shape_;
    }
    KONDO_CHECK(shape_ == other.shape_);
    runs_ = other.runs_;
    size_ = other.size_;
    return;
  }
  KONDO_CHECK(shape_ == other.shape_);
  if (other.runs_.front().begin > runs_.back().end) {
    runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
    size_ += other.size_;
    return;
  }
  if (other.size_ <= size_ && RunsContained(other.runs_, runs_)) {
    return;
  }

  // One merge by run begin. Between two runs of `other`, the runs of this
  // set that end before the next one starts are copied in bulk, found by
  // galloping, so a sparse `other` costs O(s log(r/s)) probes plus copies.
  std::vector<Run> merged;
  merged.reserve(runs_.size() + other.runs_.size());
  auto push = [&merged](const Run& run) {
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
  for (const Run& run : other.runs_) {
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
  runs_ = std::move(merged);
  size_ = 0;
  for (const Run& run : runs_) {
    size_ += run.end - run.begin;
  }
}

IndexSet IndexSet::Difference(const IndexSet& other) const {
  CheckSameShape(other);
  IndexSet result(shape_);
  size_t pos = 0;
  for (const Run& run : runs_) {
    // The runs of `other` that cut into `run`, from the first one that
    // ends past its start; the pieces between them remain.
    int64_t begin = run.begin;
    pos = GallopToEnd(other.runs_, pos, begin + 1);
    while (begin < run.end) {
      if (pos == other.runs_.size() || other.runs_[pos].begin >= run.end) {
        result.runs_.push_back(Run{begin, run.end});
        break;
      }
      const Run& cut = other.runs_[pos];
      if (cut.begin > begin) {
        result.runs_.push_back(Run{begin, cut.begin});
      }
      begin = cut.end;
      if (cut.end > run.end) {
        break;  // `cut` may reach into the next run too.
      }
      ++pos;
    }
  }
  for (const Run& run : result.runs_) {
    result.size_ += run.end - run.begin;
  }
  return result;
}

int64_t IndexSet::IntersectionSize(const IndexSet& other) const {
  CheckSameShape(other);
  int64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < runs_.size() && j < other.runs_.size()) {
    const Run& a = runs_[i];
    const Run& b = other.runs_[j];
    count += std::max<int64_t>(
        0, std::min(a.end, b.end) - std::max(a.begin, b.begin));
    if (a.end < b.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

bool IndexSet::IsSubsetOf(const IndexSet& other) const {
  CheckSameShape(other);
  return size_ <= other.size_ && RunsContained(runs_, other.runs_);
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
  for (const Run& run : runs_) {
    for (int64_t id = run.begin; id < run.end; ++id) {
      result.push_back(id);
    }
  }
  return result;
}

void IndexSet::Builder::Insert(const Index& index) {
  if (shape_.Contains(index)) {
    const int64_t linear = shape_.Linearize(index);
    Append(linear, linear + 1);
  }
}

void IndexSet::Builder::InsertLinear(int64_t linear) {
  KONDO_CHECK_GE(linear, 0);
  KONDO_CHECK_LT(linear, shape_.NumElements());
  Append(linear, linear + 1);
}

void IndexSet::Builder::InsertRun(int64_t begin, int64_t end) {
  KONDO_CHECK_GE(begin, 0);
  KONDO_CHECK_LE(begin, end);
  KONDO_CHECK_LE(end, shape_.NumElements());
  if (begin < end) {
    Append(begin, end);
  }
}

void IndexSet::Builder::Append(int64_t begin, int64_t end) {
  auto extend = [begin, end](Run& run) {
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
  runs_.push_back(Run{begin, end});
  if (runs_.size() >= coalesce_at_) {
    Coalesce();
    coalesce_at_ = std::max(kMinCoalesceRuns, 2 * runs_.size());
  }
}

void IndexSet::Builder::Coalesce() {
  auto by_begin = [](const Run& a, const Run& b) { return a.begin < b.begin; };
  if (!std::is_sorted(runs_.begin(), runs_.end(), by_begin)) {
    std::sort(runs_.begin(), runs_.end(), by_begin);
  }
  size_t kept = 0;
  for (const Run& run : runs_) {
    if (kept > 0 && run.begin <= runs_[kept - 1].end) {
      runs_[kept - 1].end = std::max(runs_[kept - 1].end, run.end);
    } else {
      runs_[kept++] = run;
    }
  }
  runs_.resize(kept);
}

IndexSet IndexSet::Builder::Build() {
  Coalesce();
  IndexSet set(shape_);
  for (const Run& run : runs_) {
    set.size_ += run.end - run.begin;
  }
  set.runs_ = std::move(runs_);
  runs_.clear();
  coalesce_at_ = kMinCoalesceRuns;
  return set;
}

}  // namespace kondo
