#ifndef KONDO_AUDIT_EVENT_LOG_H_
#define KONDO_AUDIT_EVENT_LOG_H_

#include <cstdint>
#include <vector>

#include "audit/event.h"
#include "common/interval_set.h"

namespace kondo {

/// The audited I/O events of a run in arrival order. The access views are
/// computed from the events when asked for:
///
///  * per-file merged offset ranges across processes (overlapping events are
///    coalesced, reproducing the paper's worked example where
///    e1(P1,R,0,110), e2(P2,R,70,30), e3(P1,R,130,20), e4(P1,R,90,30)
///    yield accessed offsets (0,120) and (130,150)), and
///  * Section IV-C's per-process lookups. Persisted runs answer the same
///    lookups in situ from the KEL2 store's block zone maps
///    (ProvenanceQuery::AccessedRangesForRun, EventsOverlapping).
///
/// Only data accesses with a positive size count as accessed ranges.
class EventLog {
 public:
  EventLog() = default;

  /// Appends an event. Returns the event's sequence number.
  int64_t Record(const Event& event);

  /// All events in arrival order.
  const std::vector<Event>& events() const { return events_; }
  int64_t NumEvents() const { return static_cast<int64_t>(events_.size()); }

  /// Merged accessed byte ranges of `file_id` across all processes.
  IntervalSet AccessedRanges(int64_t file_id) const;

  /// Merged accessed byte ranges of `file_id` by a single process.
  IntervalSet AccessedRangesForProcess(int64_t pid, int64_t file_id) const;

  /// True when any write event touched `file_id` — the paper records the
  /// event type `c` "to ensure that no write event took place".
  bool HasWrites(int64_t file_id) const;

  /// Data accesses of `file_id` by `pid` overlapping [begin,end), ascending
  /// by (offset, end); equal ranges keep arrival order.
  std::vector<Event> LookupProcessRange(int64_t pid, int64_t file_id,
                                        int64_t begin, int64_t end) const;

  /// Drops all recorded events.
  void Clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

}  // namespace kondo

#endif  // KONDO_AUDIT_EVENT_LOG_H_
