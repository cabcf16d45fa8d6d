#include "audit/event_log.h"

#include <algorithm>

namespace kondo {
namespace {

/// True for the events that make up accessed ranges.
bool IsRangeAccess(const Event& event) {
  return event.IsDataAccess() && event.size > 0;
}

}  // namespace

int64_t EventLog::Record(const Event& event) {
  events_.push_back(event);
  return NumEvents() - 1;
}

IntervalSet EventLog::AccessedRanges(int64_t file_id) const {
  IntervalSet::Builder ranges;  // Events come in arrival order.
  for (const Event& event : events_) {
    if (event.id.file_id == file_id && IsRangeAccess(event)) {
      ranges.Add(event.offset, event.offset + event.size);
    }
  }
  return ranges.Build();
}

IntervalSet EventLog::AccessedRangesForProcess(int64_t pid,
                                               int64_t file_id) const {
  IntervalSet::Builder ranges;
  for (const Event& event : events_) {
    if (event.id == EventId{pid, file_id} && IsRangeAccess(event)) {
      ranges.Add(event.offset, event.offset + event.size);
    }
  }
  return ranges.Build();
}

bool EventLog::HasWrites(int64_t file_id) const {
  return std::any_of(events_.begin(), events_.end(),
                     [file_id](const Event& event) {
                       return event.type == EventType::kWrite &&
                              event.id.file_id == file_id;
                     });
}

std::vector<Event> EventLog::LookupProcessRange(int64_t pid, int64_t file_id,
                                                int64_t begin,
                                                int64_t end) const {
  std::vector<Event> hits;
  for (const Event& event : events_) {
    // Non-empty intersection; an empty [begin,end) overlaps nothing.
    if (event.id == EventId{pid, file_id} && IsRangeAccess(event) &&
        std::max(begin, event.offset) <
            std::min(end, event.offset + event.size)) {
      hits.push_back(event);
    }
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [](const Event& a, const Event& b) {
                     if (a.offset != b.offset) {
                       return a.offset < b.offset;
                     }
                     return a.size < b.size;
                   });
  return hits;
}

}  // namespace kondo
