#include "serve/kpc.h"

#include <cstring>

#include "common/byte_codec.h"
#include "common/strings.h"
#include "provenance/crc32.h"

namespace kondo {

// ---------------------------------------------------------------------------
// Framing.

void AppendKpcFrame(KpcKind kind, std::string_view payload,
                    std::string* out) {
  const size_t header_start = out->size();
  out->append(kKpcMagic, sizeof(kKpcMagic));
  AppendU8(static_cast<uint8_t>(kind), out);
  AppendU8(0, out);
  AppendU8(0, out);
  AppendU8(0, out);
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
  // CRC over kind..payload — everything after the magic.
  const uint32_t crc =
      Crc32(out->data() + header_start + sizeof(kKpcMagic),
            out->size() - header_start - sizeof(kKpcMagic));
  AppendU32(crc, out);
}

Status WriteKpcFrame(Connection& conn, KpcKind kind,
                     std::string_view payload) {
  std::string frame;
  frame.reserve(kKpcHeaderBytes + payload.size() + kKpcTrailerBytes);
  AppendKpcFrame(kind, payload, &frame);
  return conn.WriteFully(frame);
}

StatusOr<KpcFrame> ReadKpcFrame(Connection& conn) {
  char header[kKpcHeaderBytes];
  KONDO_RETURN_IF_ERROR(conn.ReadFully(header, sizeof(header)));
  if (std::memcmp(header, kKpcMagic, sizeof(kKpcMagic)) != 0) {
    return DataLossError("bad KPC frame magic");
  }
  ByteCursor fields(std::string_view(header + sizeof(kKpcMagic),
                                     sizeof(header) - sizeof(kKpcMagic)),
                    "KPC frame header");
  uint8_t kind = 0;
  const char* reserved = nullptr;
  uint32_t payload_bytes = 0;
  KONDO_RETURN_IF_ERROR(fields.ReadU8(&kind));
  KONDO_RETURN_IF_ERROR(fields.ReadBytes(3, &reserved));
  KONDO_RETURN_IF_ERROR(fields.ReadU32(&payload_bytes));
  if (payload_bytes > kKpcMaxPayloadBytes) {
    return DataLossError(
        StrCat("KPC frame payload too large: ", payload_bytes));
  }
  KpcFrame frame;
  frame.kind = static_cast<KpcKind>(kind);
  frame.payload.resize(payload_bytes);
  if (payload_bytes > 0) {
    KONDO_RETURN_IF_ERROR(conn.ReadFully(frame.payload.data(),
                                         payload_bytes));
  }
  char trailer[kKpcTrailerBytes];
  KONDO_RETURN_IF_ERROR(conn.ReadFully(trailer, sizeof(trailer)));
  uint32_t wire_crc = 0;
  ByteCursor crc_field(std::string_view(trailer, sizeof(trailer)));
  KONDO_RETURN_IF_ERROR(crc_field.ReadU32(&wire_crc));
  uint32_t crc = Crc32(header + sizeof(kKpcMagic),
                       sizeof(header) - sizeof(kKpcMagic));
  crc = Crc32Update(crc, frame.payload.data(), frame.payload.size());
  if (crc != wire_crc) {
    return DataLossError("KPC frame CRC mismatch");
  }
  return frame;
}

StatusOr<KpcFrame> ReadKpcReply(Connection& conn) {
  KONDO_ASSIGN_OR_RETURN(KpcFrame frame, ReadKpcFrame(conn));
  if (frame.kind != KpcKind::kError) {
    return frame;
  }
  KONDO_ASSIGN_OR_RETURN(const KpcError error, KpcError::Decode(frame.payload));
  return error.ToStatus();
}

// ---------------------------------------------------------------------------
// Verb payloads.

const char* KpcVerbName(int verb) {
  switch (verb) {
    case kVerbFetchSubset:
      return "fetch-subset";
    case kVerbQuery:
      return "query-provenance";
    case kVerbSubmit:
      return "submit-campaign";
    case kVerbStats:
      return "stats";
    default:
      return "unknown";
  }
}

Status FetchSubsetResponse::Check() const {
  if (begin > end ||
      static_cast<uint64_t>(end) - static_cast<uint64_t>(begin) !=
          present.size()) {
    return DataLossError(StrCat("fetch-subset response range [", begin, ", ",
                                end, ") disagrees with its ", present.size(),
                                " presence bytes"));
  }
  size_t set = 0;
  for (uint8_t bit : present) {
    if (bit > 1) {
      return DataLossError(
          StrCat("fetch-subset presence byte ", static_cast<int>(bit),
                 " is neither 0 nor 1"));
    }
    set += bit;
  }
  if (set != values.size()) {
    return DataLossError(StrCat("fetch-subset response marks ", set,
                                " elements present but carries ",
                                values.size(), " values"));
  }
  return OkStatus();
}

Status KpcError::Check() const {
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDataMissing)) {
    return DataLossError(StrCat("bad KPC error code: ", code));
  }
  return OkStatus();
}

KpcError KpcError::FromStatus(const Status& status) {
  KpcError err;
  err.code = static_cast<uint32_t>(status.code());
  err.message = status.message();
  return err;
}

Status KpcError::ToStatus() const {
  return Status(static_cast<StatusCode>(code), message);
}

}  // namespace kondo
