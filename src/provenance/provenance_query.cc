#include "provenance/provenance_query.h"

#include <algorithm>

#include "common/strings.h"

namespace kondo {

ProvenanceQuery::ProvenanceQuery(const Kel2Reader* reader)
    : reader_(reader), decoded_(reader->blocks().size()) {}

StatusOr<const std::vector<Event>*> ProvenanceQuery::Block(size_t index) {
  if (decoded_[index].has_value()) {
    ++stats_.block_cache_hits;
  } else {
    KONDO_ASSIGN_OR_RETURN(std::vector<Event> events,
                           reader_->DecodeBlock(index));
    decoded_[index] = std::move(events);
    ++stats_.blocks_decoded;
  }
  return &*decoded_[index];
}

StatusOr<std::vector<Event>> ProvenanceQuery::EventsOverlapping(
    int64_t file_id, int64_t begin, int64_t end) {
  ++stats_.queries;
  std::vector<Event> matches;
  const std::vector<Kel2BlockInfo>& blocks = reader_->blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    ++stats_.blocks_considered;
    if (!blocks[i].MayMatch(file_id, begin, end)) {
      ++stats_.blocks_skipped;
      continue;
    }
    KONDO_ASSIGN_OR_RETURN(const std::vector<Event>* events, Block(i));
    for (const Event& event : *events) {
      ++stats_.events_scanned;
      if (event.IsDataAccess() && event.id.file_id == file_id &&
          event.size > 0 && event.offset < end &&
          begin < event.offset + event.size) {
        matches.push_back(event);
      }
    }
  }
  return matches;
}

StatusOr<std::vector<int64_t>> ProvenanceQuery::RunsTouching(int64_t file_id,
                                                             int64_t begin,
                                                             int64_t end) {
  KONDO_ASSIGN_OR_RETURN(std::vector<Event> events,
                         EventsOverlapping(file_id, begin, end));
  std::vector<int64_t> pids;
  pids.reserve(events.size());
  for (const Event& event : events) {
    pids.push_back(event.id.pid);
  }
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  return pids;
}

StatusOr<IntervalSet> ProvenanceQuery::AccessedRanges(int64_t file_id) {
  ++stats_.queries;
  IntervalSet::Builder ranges;  // Store order restarts with every run.
  const std::vector<Kel2BlockInfo>& blocks = reader_->blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    ++stats_.blocks_considered;
    if (!blocks[i].MayContainFile(file_id) ||
        blocks[i].min_offset > blocks[i].max_end) {
      ++stats_.blocks_skipped;
      continue;
    }
    KONDO_ASSIGN_OR_RETURN(const std::vector<Event>* events, Block(i));
    for (const Event& event : *events) {
      ++stats_.events_scanned;
      if (event.IsDataAccess() && event.id.file_id == file_id &&
          event.size > 0) {
        ranges.Add(event.offset, event.offset + event.size);
      }
    }
  }
  return ranges.Build();
}

StatusOr<IntervalSet> ProvenanceQuery::AccessedRangesForRun(
    int64_t pid, int64_t file_id) {
  ++stats_.queries;
  IntervalSet::Builder ranges;
  const std::vector<Kel2BlockInfo>& blocks = reader_->blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    ++stats_.blocks_considered;
    if (!blocks[i].MayContainFile(file_id) || pid < blocks[i].min_pid ||
        pid > blocks[i].max_pid || blocks[i].min_offset > blocks[i].max_end) {
      ++stats_.blocks_skipped;
      continue;
    }
    KONDO_ASSIGN_OR_RETURN(const std::vector<Event>* events, Block(i));
    for (const Event& event : *events) {
      ++stats_.events_scanned;
      if (event.IsDataAccess() && event.id.pid == pid &&
          event.id.file_id == file_id && event.size > 0) {
        ranges.Add(event.offset, event.offset + event.size);
      }
    }
  }
  return ranges.Build();
}

StatusOr<std::map<int64_t, int64_t>> ProvenanceQuery::PerRunCoverage(
    int64_t file_id) {
  ++stats_.queries;
  std::map<int64_t, IntervalSet::Builder> per_run;
  const std::vector<Kel2BlockInfo>& blocks = reader_->blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    ++stats_.blocks_considered;
    if (!blocks[i].MayContainFile(file_id) ||
        blocks[i].min_offset > blocks[i].max_end) {
      ++stats_.blocks_skipped;
      continue;
    }
    KONDO_ASSIGN_OR_RETURN(const std::vector<Event>* events, Block(i));
    for (const Event& event : *events) {
      ++stats_.events_scanned;
      if (event.IsDataAccess() && event.id.file_id == file_id &&
          event.size > 0) {
        per_run[event.id.pid].Add(event.offset, event.offset + event.size);
      }
    }
  }
  std::map<int64_t, int64_t> coverage;
  for (auto& [pid, ranges] : per_run) {
    coverage[pid] = ranges.Build().TotalLength();
  }
  return coverage;
}

StatusOr<std::vector<int64_t>> ProvenanceQuery::CoverageHistogram(
    int64_t file_id, int64_t bucket_bytes) {
  if (bucket_bytes <= 0) {
    return InvalidArgumentError(
        StrCat("bucket_bytes must be positive, got ", bucket_bytes));
  }
  KONDO_ASSIGN_OR_RETURN(IntervalSet ranges, AccessedRanges(file_id));
  std::vector<int64_t> histogram;
  for (const Interval& interval : ranges.ToIntervals()) {
    if (interval.begin < 0) {
      return InvalidArgumentError(
          StrCat("negative access offset ", interval.begin,
                 " cannot be bucketed"));
    }
    const size_t last_bucket =
        static_cast<size_t>((interval.end - 1) / bucket_bytes);
    if (histogram.size() <= last_bucket) {
      histogram.resize(last_bucket + 1, 0);
    }
    for (size_t b = static_cast<size_t>(interval.begin / bucket_bytes);
         b <= last_bucket; ++b) {
      const int64_t bucket_begin = static_cast<int64_t>(b) * bucket_bytes;
      const int64_t bucket_end = bucket_begin + bucket_bytes;
      histogram[b] += std::min(interval.end, bucket_end) -
                      std::max(interval.begin, bucket_begin);
    }
  }
  return histogram;
}

StatusOr<IndexSet> ProvenanceQuery::AccessedIndices(
    int64_t file_id, const OffsetMapper& mapper) {
  KONDO_ASSIGN_OR_RETURN(IntervalSet ranges, AccessedRanges(file_id));
  return mapper.IndicesForRanges(ranges);
}

}  // namespace kondo
