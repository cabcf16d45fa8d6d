#ifndef KONDO_PROVENANCE_KEL2_WRITER_H_
#define KONDO_PROVENANCE_KEL2_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "audit/event.h"
#include "audit/event_log.h"
#include "common/env.h"
#include "common/status.h"
#include "common/statusor.h"
#include "provenance/kel2_format.h"

namespace kondo {

struct Kel2WriterOptions {
  /// Events buffered per block before it is sealed. Larger blocks compress
  /// better; smaller blocks give the query engine finer skip granularity.
  int64_t events_per_block = 512;

  /// Filesystem to write through; nullptr selects Env::Default(). It rides
  /// inside the options so every persister factory picks it up without
  /// signature churn.
  Env* env = nullptr;
};

/// Streaming writer for the KEL2 block-compressed lineage store. Events are
/// buffered and sealed into checksummed columnar blocks; a crash loses at
/// most the unsealed buffer plus a torn trailing block, which the reader
/// drops.
///
/// Durability: blocks accumulate in `path + ".tmp"`; Close() (also run by
/// the destructor) seals the tail, fsyncs, and renames the store into
/// place, so a reader observes either the previous artifact or the new
/// complete one (see docs/ROBUSTNESS.md).
class Kel2Writer {
 public:
  static StatusOr<Kel2Writer> Create(const std::string& path,
                                     const Kel2WriterOptions& options = {});

  Kel2Writer(Kel2Writer&& other) noexcept;
  Kel2Writer& operator=(Kel2Writer&& other) noexcept;
  ~Kel2Writer();

  /// Buffers one event; seals a block when the buffer reaches
  /// `events_per_block`. An event whose `offset + size` overflows int64 is
  /// refused with kInvalidArgument and leaves the store unchanged.
  Status Append(const Event& event);

  /// Appends every event of `log` in arrival order.
  Status AppendAll(const EventLog& log);

  /// Seals the buffered partial block (if any) and flushes the stream (to
  /// the uncommitted tmp file — only Close publishes the artifact).
  Status Flush();

  /// Seals the tail, fsyncs, and atomically publishes the store; further
  /// Appends fail. Idempotent.
  Status Close();

  int64_t events_written() const { return events_written_; }
  int64_t blocks_written() const { return blocks_written_; }

  /// Bytes appended to the store so far (file header, descriptors, and
  /// payloads). Valid after Close() too — the serve stats verb reports
  /// artifact sizes from here instead of stat()-ing files mid-serve.
  int64_t bytes_written() const { return file_.bytes_appended(); }

 private:
  Kel2Writer(AtomicFile file, Kel2WriterOptions options)
      : file_(std::move(file)), options_(options) {
    buffer_.reserve(static_cast<size_t>(options_.events_per_block));
  }

  /// Encodes and writes the buffered events as one block.
  Status SealBlock();

  AtomicFile file_;
  Kel2WriterOptions options_;
  std::vector<Event> buffer_;
  int64_t events_written_ = 0;
  int64_t blocks_written_ = 0;
};

/// Encodes `events` into one block (descriptor + payload) appended to
/// `out`. Exposed for the reader's tests and the compactor.
void EncodeKel2Block(const std::vector<Event>& events, std::string* out);

}  // namespace kondo

#endif  // KONDO_PROVENANCE_KEL2_WRITER_H_
