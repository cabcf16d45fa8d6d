#ifndef KONDO_PROVENANCE_KEL2_READER_H_
#define KONDO_PROVENANCE_KEL2_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/event.h"
#include "common/env.h"
#include "common/status.h"
#include "common/statusor.h"
#include "provenance/kel2_format.h"

namespace kondo {

/// Reader for the KEL2 block-compressed lineage store. `Open` scans only
/// the 64-byte block descriptors (seeking past every payload), so a store
/// of millions of events is indexed by reading a few kilobytes; payloads
/// are decoded lazily per block, which is what lets the query engine skip
/// blocks that cannot match.
///
/// Crash semantics: a truncated trailing descriptor or payload (torn
/// write, judged against the file size) is silently dropped at Open; a
/// read error is returned, never taken for a torn tail. A structurally
/// complete block whose payload fails its CRC is reported as `kDataLoss`
/// by DecodeBlock/ReadAll — corruption is detected, never silently
/// mis-decoded. Descriptors sit outside the CRC, so Open rejects
/// (kDataLoss) any descriptor whose payload size or event count is
/// implausible rather than letting it size an allocation.
class Kel2Reader {
 public:
  /// Opens `path` through `env` (nullptr selects Env::Default()).
  static StatusOr<Kel2Reader> Open(const std::string& path,
                                   Env* env = nullptr);

  /// Block descriptors in file order (the torn tail, if any, excluded).
  const std::vector<Kel2BlockInfo>& blocks() const { return blocks_; }
  int64_t NumBlocks() const { return static_cast<int64_t>(blocks_.size()); }

  /// Total events across all intact blocks.
  int64_t NumEvents() const { return num_events_; }

  /// Descriptor bytes + payload bytes of the intact blocks (excludes the
  /// 8-byte file header).
  int64_t BlockBytes() const { return block_bytes_; }

  /// Decodes one block: reads its payload, verifies the CRC, and expands
  /// the columnar sections back into events.
  StatusOr<std::vector<Event>> DecodeBlock(size_t index) const;

  /// Decodes every block in order.
  StatusOr<std::vector<Event>> ReadAll() const;

  const std::string& path() const { return file_->path(); }

 private:
  explicit Kel2Reader(std::unique_ptr<RandomAccessFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<RandomAccessFile> file_;
  std::vector<Kel2BlockInfo> blocks_;
  int64_t num_events_ = 0;
  int64_t block_bytes_ = 0;
};

/// Decodes a KEL2 columnar payload (CRC already verified) into events.
/// Returns kDataLoss when the payload does not decode to exactly
/// `event_count` events, or when an event's `offset + size` overflows
/// int64 (the writer never stores one).
StatusOr<std::vector<Event>> DecodeKel2Payload(const char* payload,
                                               size_t size,
                                               uint32_t event_count);

/// Opens the KEL2 store at `path` through `env` (nullptr selects
/// Env::Default()) and decodes every event in order.
StatusOr<std::vector<Event>> ReadLineageStore(const std::string& path,
                                              Env* env = nullptr);

}  // namespace kondo

#endif  // KONDO_PROVENANCE_KEL2_READER_H_
