#include "audit/event.h"

#include <sstream>

namespace kondo {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kOpen:
      return "open";
    case EventType::kRead:
      return "read";
    case EventType::kPread:
      return "pread";
    case EventType::kMmap:
      return "mmap";
    case EventType::kWrite:
      return "write";
    case EventType::kClose:
      return "close";
  }
  return "unknown";
}

Status DecodeEnum(uint8_t byte, EventType* type) {
  if (byte > static_cast<uint8_t>(EventType::kClose)) {
    return DataLossError("bad event type " + std::to_string(byte));
  }
  *type = static_cast<EventType>(byte);
  return OkStatus();
}

std::string Event::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Event& event) {
  return os << "<pid=" << event.id.pid << ",file=" << event.id.file_id << ","
            << EventTypeName(event.type) << "," << event.offset << ","
            << event.size << ">";
}

}  // namespace kondo
