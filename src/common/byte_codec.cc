#include "common/byte_codec.h"

#include "common/strings.h"

namespace kondo {

void AppendString(std::string_view v, std::string* out) {
  AppendU32(static_cast<uint32_t>(v.size()), out);
  out->append(v.data(), v.size());
}

Status ByteCursor::ReadString(std::string* v) {
  const size_t start = pos_;
  uint32_t size = 0;
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(ReadU32(&size));
  const Status read = ReadBytes(size, &p);
  if (!read.ok()) {
    pos_ = start;  // A failed read consumes nothing, length prefix included.
    return read;
  }
  v->assign(p, size);
  return OkStatus();
}

Status ByteCursor::BadVarint() const {
  return DataLossError(StrCat(what_, ": truncated or over-long varint"));
}

Status ByteCursor::Underrun(size_t n) const {
  return DataLossError(StrCat(what_, " underrun: need ", n, " bytes, have ",
                              remaining()));
}

Status ByteCursor::Done() const {
  if (remaining() != 0) {
    return DataLossError(
        StrCat(what_, " has ", remaining(), " trailing bytes"));
  }
  return OkStatus();
}

}  // namespace kondo
