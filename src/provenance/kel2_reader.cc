#include "provenance/kel2_reader.h"

#include <cstring>
#include <string_view>

#include "common/byte_codec.h"
#include "common/strings.h"
#include "provenance/crc32.h"

namespace kondo {
namespace {

/// Decodes one delta + zigzag varint column of `count` values. The running
/// sum wraps mod 2^64, matching the writer's wrapping difference.
Status DecodeDeltaColumn(ByteCursor& in, uint32_t count,
                         std::vector<int64_t>* out) {
  out->clear();
  out->reserve(count);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    int64_t delta = 0;
    KONDO_RETURN_IF_ERROR(in.ReadSignedVarint(&delta));
    prev += static_cast<uint64_t>(delta);
    out->push_back(static_cast<int64_t>(prev));
  }
  return OkStatus();
}

Status ParseDescriptor(std::string_view bytes, Kel2BlockInfo* info) {
  ByteCursor cur(bytes, "KEL2 block descriptor");
  uint32_t reserved = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&info->payload_bytes));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&info->crc32));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&info->event_count));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&reserved));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&info->min_offset));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&info->max_end));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&info->min_pid));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&info->max_pid));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&info->min_file_id));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&info->max_file_id));
  return cur.Done();
}

}  // namespace

StatusOr<std::vector<Event>> DecodeKel2Payload(const char* payload,
                                               size_t size,
                                               uint32_t event_count) {
  ByteCursor in(std::string_view(payload, size), "KEL2 block payload");
  std::vector<int64_t> pids, file_ids;
  KONDO_RETURN_IF_ERROR(DecodeDeltaColumn(in, event_count, &pids));
  KONDO_RETURN_IF_ERROR(DecodeDeltaColumn(in, event_count, &file_ids));

  std::vector<EventType> types;
  types.reserve(event_count);
  while (types.size() < event_count) {
    uint8_t type_byte = 0;
    EventType type = EventType::kRead;
    uint64_t run = 0;
    KONDO_RETURN_IF_ERROR(in.ReadU8(&type_byte));
    KONDO_RETURN_IF_ERROR(DecodeEnum(type_byte, &type));
    KONDO_RETURN_IF_ERROR(in.ReadVarint(&run));
    if (run == 0 || run > event_count - types.size()) {
      return DataLossError("KEL2 type column mis-encoded");
    }
    types.insert(types.end(), static_cast<size_t>(run), type);
  }

  std::vector<int64_t> offsets;
  KONDO_RETURN_IF_ERROR(DecodeDeltaColumn(in, event_count, &offsets));

  std::vector<int64_t> sizes;
  sizes.reserve(event_count);
  while (sizes.size() < event_count) {
    int64_t value = 0;
    uint64_t run = 0;
    KONDO_RETURN_IF_ERROR(in.ReadSignedVarint(&value));
    KONDO_RETURN_IF_ERROR(in.ReadVarint(&run));
    if (run == 0 || run > event_count - sizes.size()) {
      return DataLossError("KEL2 size column mis-encoded");
    }
    sizes.insert(sizes.end(), static_cast<size_t>(run), value);
  }
  KONDO_RETURN_IF_ERROR(in.Done());

  std::vector<Event> events(event_count);
  for (uint32_t i = 0; i < event_count; ++i) {
    int64_t end = 0;
    if (__builtin_add_overflow(offsets[i], sizes[i], &end)) {
      return DataLossError(StrCat("KEL2 event ", i, " at offset ", offsets[i],
                                  " with size ", sizes[i],
                                  " ends past int64"));
    }
    events[i].id.pid = pids[i];
    events[i].id.file_id = file_ids[i];
    events[i].type = types[i];
    events[i].offset = offsets[i];
    events[i].size = sizes[i];
  }
  return events;
}

StatusOr<Kel2Reader> Kel2Reader::Open(const std::string& path, Env* env) {
  KONDO_ASSIGN_OR_RETURN(
      std::unique_ptr<RandomAccessFile> file,
      (env != nullptr ? env : Env::Default())->NewRandomAccessFile(path));
  char header[kKel2HeaderBytes];
  KONDO_ASSIGN_OR_RETURN(const int64_t got,
                         file->Read(0, kKel2HeaderBytes, header));
  if (got != kKel2HeaderBytes || std::memcmp(header, kKel2Magic, 4) != 0) {
    return DataLossError("not a KEL2 event store: " + path);
  }

  Kel2Reader reader(std::move(file));
  const RandomAccessFile& in = *reader.file_;
  char descriptor[kKel2DescriptorBytes];
  int64_t pos = kKel2HeaderBytes;
  // A torn trailing descriptor or payload ends short of the file size and
  // is dropped; a read that fails inside the file is an error.
  while (pos + static_cast<int64_t>(kKel2DescriptorBytes) <= in.Size()) {
    KONDO_RETURN_IF_ERROR(in.ReadFully(pos, kKel2DescriptorBytes, descriptor));
    Kel2BlockInfo info;
    KONDO_RETURN_IF_ERROR(ParseDescriptor(
        std::string_view(descriptor, kKel2DescriptorBytes), &info));
    if (info.payload_bytes > kKel2MaxPayloadBytes) {
      return DataLossError(StrCat("KEL2 block at offset ", pos,
                                  " declares implausible payload of ",
                                  info.payload_bytes, " bytes: ", path));
    }
    // Every event costs at least one varint byte in each of the pid,
    // file_id and offset columns, so a larger count cannot decode — and
    // would size ReadAll's reservation from a corrupt descriptor.
    if (info.event_count > info.payload_bytes / 3) {
      return DataLossError(StrCat("KEL2 block at offset ", pos, " declares ",
                                  info.event_count, " events in ",
                                  info.payload_bytes, " payload bytes: ",
                                  path));
    }
    info.payload_pos = pos + static_cast<int64_t>(kKel2DescriptorBytes);
    if (info.payload_pos + static_cast<int64_t>(info.payload_bytes) >
        in.Size()) {
      break;  // Torn trailing payload: drop the block.
    }
    reader.blocks_.push_back(info);
    reader.num_events_ += info.event_count;
    reader.block_bytes_ += static_cast<int64_t>(kKel2DescriptorBytes) +
                           static_cast<int64_t>(info.payload_bytes);
    pos = info.payload_pos + static_cast<int64_t>(info.payload_bytes);
  }
  return reader;
}

StatusOr<std::vector<Event>> Kel2Reader::DecodeBlock(size_t index) const {
  if (index >= blocks_.size()) {
    return OutOfRangeError(StrCat("block ", index, " of ", blocks_.size()));
  }
  const Kel2BlockInfo& info = blocks_[index];
  std::string payload(info.payload_bytes, '\0');
  KONDO_RETURN_IF_ERROR(
      file_->ReadFully(info.payload_pos, payload.size(), payload.data()));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != info.crc32) {
    return DataLossError(StrCat("KEL2 block ", index,
                                " checksum mismatch (stored ", info.crc32,
                                ", computed ", crc, "): ", path()));
  }
  return DecodeKel2Payload(payload.data(), payload.size(),
                           info.event_count);
}

StatusOr<std::vector<Event>> Kel2Reader::ReadAll() const {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events_));
  for (size_t i = 0; i < blocks_.size(); ++i) {
    KONDO_ASSIGN_OR_RETURN(std::vector<Event> block, DecodeBlock(i));
    events.insert(events.end(), block.begin(), block.end());
  }
  return events;
}

StatusOr<std::vector<Event>> ReadLineageStore(const std::string& path,
                                              Env* env) {
  KONDO_ASSIGN_OR_RETURN(Kel2Reader reader, Kel2Reader::Open(path, env));
  return reader.ReadAll();
}

}  // namespace kondo
