#include "audit/traced_file.h"

namespace kondo {

StatusOr<TracedFile> TracedFile::Open(const std::string& path, int64_t pid,
                                      int64_t file_id, EventLog* log) {
  KONDO_ASSIGN_OR_RETURN(KdfReader reader, KdfReader::Open(path));
  TracedFile file(std::move(reader), pid, file_id, log);
  file.Log(EventType::kOpen, 0, 0);
  return file;
}

TracedFile::~TracedFile() {
  // A moved-from TracedFile has a moved-from reader; logging close for it
  // would be misleading, so guard on the flag only for live instances.
  if (!closed_ && reader_.is_open()) {
    Close();
  }
}

void TracedFile::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  Log(EventType::kClose, 0, 0);
}

StatusOr<double> TracedFile::ReadElement(const Index& index) {
  if (!shape().Contains(index)) {
    return OutOfRangeError("index out of bounds");
  }
  ++access_count_;
  const int64_t elem = reader_.layout().element_size();
  const int64_t offset =
      reader_.payload_offset() + reader_.layout().ByteOffsetOf(index);
  Log(EventType::kPread, offset, elem);
  return reader_.ReadElement(index);
}

StatusOr<int64_t> TracedFile::ReadRaw(int64_t offset, int64_t size,
                                      char* buf) {
  ++access_count_;
  Log(EventType::kPread, offset, size);
  return reader_.ReadRaw(offset, size, buf);
}

void TracedFile::TouchMmap(int64_t offset, int64_t size) {
  ++access_count_;
  Log(EventType::kMmap, offset, size);
}

void TracedFile::Log(EventType type, int64_t offset, int64_t size) {
  if (log_ == nullptr) {
    return;
  }
  Event event;
  event.id = EventId{pid_, file_id_};
  event.type = type;
  event.offset = offset;
  event.size = size;
  log_->Record(event);
}

}  // namespace kondo
