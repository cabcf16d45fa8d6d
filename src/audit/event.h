#ifndef KONDO_AUDIT_EVENT_H_
#define KONDO_AUDIT_EVENT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"

namespace kondo {

/// System-call classes audited by the interposition layer.
enum class EventType : uint8_t {
  kOpen = 0,
  kRead = 1,   // Sequential read at the current cursor.
  kPread = 2,  // Positioned read.
  kMmap = 3,   // Memory-mapped access window.
  kWrite = 4,  // Recorded to verify the data file is read-only.
  kClose = 5,
};

std::string_view EventTypeName(EventType type);

/// The one check of an event type read from untrusted bytes, shared by the
/// KPC event batch and the KEL2 type column: kDataLoss unless `byte` names
/// an EventType.
Status DecodeEnum(uint8_t byte, EventType* type);

/// Identifies the process and file an event belongs to ("id" in
/// Definition 4: "the process identifier that generated the system call and
/// the file it affects").
struct EventId {
  int64_t pid = 0;
  int64_t file_id = 0;

  friend bool operator==(const EventId& a, const EventId& b) {
    return a.pid == b.pid && a.file_id == b.file_id;
  }
  friend bool operator<(const EventId& a, const EventId& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    return a.file_id < b.file_id;
  }
};

/// An audited I/O event — the four-tuple `<id, c, l, sz>` of Definition 4:
/// identity, call type, start byte offset, and affected size.
struct Event {
  EventId id;
  EventType type = EventType::kRead;
  int64_t offset = 0;  // `l`: start byte offset in the file.
  int64_t size = 0;    // `sz`: affected bytes starting at `offset`.

  /// True for event types that read file content.
  bool IsDataAccess() const {
    return type == EventType::kRead || type == EventType::kPread ||
           type == EventType::kMmap;
  }

  std::string ToString() const;

  /// KPC wire order (serve/kpc_codec.h).
  template <class V>
  void Fields(V& v) {
    v(id.pid, id.file_id, type, offset, size);
  }
};

std::ostream& operator<<(std::ostream& os, const Event& event);

}  // namespace kondo

#endif  // KONDO_AUDIT_EVENT_H_
