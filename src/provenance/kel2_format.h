#ifndef KONDO_PROVENANCE_KEL2_FORMAT_H_
#define KONDO_PROVENANCE_KEL2_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace kondo {

/// KEL2 — block-compressed Kondo Event Log (docs/FORMATS.md).
///
///   magic "KEL2" | u32 reserved | block*
///
/// Each block is a fixed 64-byte descriptor followed by `payload_bytes` of
/// columnar payload:
///
///   offset size field
///   0      4    u32 payload_bytes
///   4      4    u32 crc32 of the payload (IEEE, zlib polynomial)
///   8      4    u32 event_count
///   12     4    u32 reserved (0)
///   16     8    i64 min_offset   ┐ union of [offset, offset+size) over the
///   24     8    i64 max_end      ┘ block's *data-access* events; when the
///                                  block has none, min_offset > max_end
///   32     8    i64 min_pid      ┐ over all events
///   40     8    i64 max_pid      ┘
///   48     8    i64 min_file_id  ┐ over all events
///   56     8    i64 max_file_id  ┘
///
/// The descriptor lets a reader decide from 64 bytes whether a block can
/// possibly satisfy an interval query and seek past it otherwise — the
/// in-situ property of Zhao & Krishnan's array-lineage store. The payload
/// encodes the events columnar:
///
///   pids      delta + zigzag varint, one per event
///   file_ids  delta + zigzag varint, one per event
///   types     run-length pairs (u8 type, varint run) summing to event_count
///   offsets   delta + zigzag varint, one per event
///   sizes     run-length pairs (zigzag varint value, varint run)
///
/// A torn trailing block (crash mid-append: truncated descriptor or
/// payload) is dropped on read, losing that block's events and no other;
/// a *complete* block whose payload fails its CRC is reported as data
/// loss.
constexpr char kKel2Magic[4] = {'K', 'E', 'L', '2'};
constexpr size_t kKel2HeaderBytes = 8;
constexpr size_t kKel2DescriptorBytes = 64;

/// Hard ceiling on a block payload; a descriptor declaring more is treated
/// as corruption rather than an allocation request.
constexpr uint32_t kKel2MaxPayloadBytes = 1u << 28;

/// Decoded block descriptor plus the block's position within the file.
struct Kel2BlockInfo {
  int64_t payload_pos = 0;  // Absolute file offset of the payload.
  uint32_t payload_bytes = 0;
  uint32_t crc32 = 0;
  uint32_t event_count = 0;
  int64_t min_offset = 0;  // Data-access byte range; min > max when none.
  int64_t max_end = -1;
  int64_t min_pid = 0;
  int64_t max_pid = 0;
  int64_t min_file_id = 0;
  int64_t max_file_id = 0;

  /// True when the block may contain a data access to `file_id`
  /// overlapping [begin, end) — the skip predicate of the query engine.
  bool MayMatch(int64_t file_id, int64_t begin, int64_t end) const {
    return file_id >= min_file_id && file_id <= max_file_id &&
           min_offset < end && begin < max_end;
  }

  /// True when the block may contain any event of `file_id`.
  bool MayContainFile(int64_t file_id) const {
    return file_id >= min_file_id && file_id <= max_file_id;
  }
};

}  // namespace kondo

#endif  // KONDO_PROVENANCE_KEL2_FORMAT_H_
