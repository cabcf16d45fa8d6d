#include "provenance/kel2_writer.h"

#include <algorithm>
#include <limits>

#include "common/byte_codec.h"
#include "common/strings.h"
#include "provenance/crc32.h"

namespace kondo {
namespace {

/// Delta + zigzag + varint column: each value is stored as the signed
/// difference from its predecessor (the first from 0), so near-sequential
/// streams collapse to one byte per value. The difference wraps mod 2^64
/// (uint64_t, never signed overflow); the reader's wrapping sum undoes it.
void EncodeDeltaColumn(const std::vector<Event>& events,
                       int64_t (*field)(const Event&), std::string* out) {
  uint64_t prev = 0;
  for (const Event& event : events) {
    const uint64_t value = static_cast<uint64_t>(field(event));
    AppendSignedVarint(static_cast<int64_t>(value - prev), out);
    prev = value;
  }
}

}  // namespace

void EncodeKel2Block(const std::vector<Event>& events, std::string* out) {
  std::string payload;
  payload.reserve(events.size() * 4);

  EncodeDeltaColumn(events, [](const Event& e) { return e.id.pid; },
                    &payload);
  EncodeDeltaColumn(events, [](const Event& e) { return e.id.file_id; },
                    &payload);

  // Types: run-length pairs (u8 value, varint run).
  for (size_t i = 0; i < events.size();) {
    size_t run = 1;
    while (i + run < events.size() &&
           events[i + run].type == events[i].type) {
      ++run;
    }
    AppendU8(static_cast<uint8_t>(events[i].type), &payload);
    AppendVarint(run, &payload);
    i += run;
  }

  EncodeDeltaColumn(events, [](const Event& e) { return e.offset; },
                    &payload);

  // Sizes: run-length pairs (zigzag varint value, varint run) — stencil
  // reads repeat the element width thousands of times.
  for (size_t i = 0; i < events.size();) {
    size_t run = 1;
    while (i + run < events.size() &&
           events[i + run].size == events[i].size) {
      ++run;
    }
    AppendSignedVarint(events[i].size, &payload);
    AppendVarint(run, &payload);
    i += run;
  }

  // Descriptor. Offset bounds cover data-access events only so blocks of
  // pure open/close traffic never match an interval query.
  int64_t min_offset = std::numeric_limits<int64_t>::max();
  int64_t max_end = std::numeric_limits<int64_t>::min();
  int64_t min_pid = std::numeric_limits<int64_t>::max();
  int64_t max_pid = std::numeric_limits<int64_t>::min();
  int64_t min_file = std::numeric_limits<int64_t>::max();
  int64_t max_file = std::numeric_limits<int64_t>::min();
  for (const Event& event : events) {
    min_pid = std::min(min_pid, event.id.pid);
    max_pid = std::max(max_pid, event.id.pid);
    min_file = std::min(min_file, event.id.file_id);
    max_file = std::max(max_file, event.id.file_id);
    if (event.IsDataAccess() && event.size > 0) {
      min_offset = std::min(min_offset, event.offset);
      max_end = std::max(max_end, event.offset + event.size);
    }
  }
  if (events.empty()) {
    min_pid = max_pid = min_file = max_file = 0;
  }
  if (max_end == std::numeric_limits<int64_t>::min()) {
    min_offset = 0;  // No data accesses: empty range (min > max).
    max_end = -1;
  }

  AppendU32(static_cast<uint32_t>(payload.size()), out);
  AppendU32(Crc32(payload.data(), payload.size()), out);
  AppendU32(static_cast<uint32_t>(events.size()), out);
  AppendU32(0, out);
  AppendI64(min_offset, out);
  AppendI64(max_end, out);
  AppendI64(min_pid, out);
  AppendI64(max_pid, out);
  AppendI64(min_file, out);
  AppendI64(max_file, out);
  out->append(payload);
}

StatusOr<Kel2Writer> Kel2Writer::Create(const std::string& path,
                                        const Kel2WriterOptions& options) {
  if (options.events_per_block <= 0) {
    return InvalidArgumentError(
        StrCat("events_per_block must be positive, got ",
               options.events_per_block));
  }
  StatusOr<AtomicFile> file = AtomicFile::Create(path, options.env);
  if (!file.ok()) {
    return Status(file.status().code(),
                  StrCat("cannot create KEL2 store: ", path, ": ",
                         file.status().message()));
  }
  std::string header(kKel2Magic, sizeof(kKel2Magic));
  AppendU32(0, &header);  // reserved
  const Status written = file->Append(header);
  if (!written.ok()) {
    return Status(written.code(),
                  StrCat("KEL2 header write: ", written.message()));
  }
  return Kel2Writer(*std::move(file), options);
}

Kel2Writer::Kel2Writer(Kel2Writer&& other) noexcept = default;

Kel2Writer& Kel2Writer::operator=(Kel2Writer&& other) noexcept {
  if (this != &other) {
    // noexcept move-assign cannot propagate the status; callers that need
    // the tail durable call Close() explicitly.
    // kondo-lint: allow(R3) move-assign swallows the stale writer's status
    (void)Close();
    file_ = std::move(other.file_);
    options_ = other.options_;
    buffer_ = std::move(other.buffer_);
    events_written_ = other.events_written_;
    blocks_written_ = other.blocks_written_;
  }
  return *this;
}

Kel2Writer::~Kel2Writer() {
  // Destructors cannot propagate the status; the uncommitted tmp store is
  // discarded if the commit fails, so no torn artifact is published.
  // kondo-lint: allow(R3) destructor swallows the close status by design
  (void)Close();
}

Status Kel2Writer::Append(const Event& event) {
  if (!file_.open()) {
    return FailedPreconditionError("KEL2 store already closed: " +
                                   file_.path());
  }
  int64_t end = 0;
  if (__builtin_add_overflow(event.offset, event.size, &end)) {
    return InvalidArgumentError(StrCat("KEL2 event ", event.ToString(),
                                       " ends past int64: ", file_.path()));
  }
  buffer_.push_back(event);
  if (static_cast<int64_t>(buffer_.size()) >= options_.events_per_block) {
    return SealBlock();
  }
  return OkStatus();
}

Status Kel2Writer::AppendAll(const EventLog& log) {
  for (const Event& event : log.events()) {
    KONDO_RETURN_IF_ERROR(Append(event));
  }
  return OkStatus();
}

Status Kel2Writer::SealBlock() {
  std::string block;
  EncodeKel2Block(buffer_, &block);
  const Status written = file_.Append(block);
  if (!written.ok()) {
    return Status(written.code(),
                  StrCat("KEL2 block write (block ", blocks_written_,
                         "): ", written.message()));
  }
  events_written_ += static_cast<int64_t>(buffer_.size());
  ++blocks_written_;
  buffer_.clear();
  return OkStatus();
}

Status Kel2Writer::Flush() {
  if (!file_.open()) {
    return FailedPreconditionError("KEL2 store already closed: " +
                                   file_.path());
  }
  if (!buffer_.empty()) {
    KONDO_RETURN_IF_ERROR(SealBlock());
  }
  const Status flushed = file_.Flush();
  if (!flushed.ok()) {
    return Status(flushed.code(),
                  StrCat("KEL2 flush failed: ", flushed.message()));
  }
  return OkStatus();
}

Status Kel2Writer::Close() {
  if (!file_.open()) {
    return OkStatus();
  }
  Status seal = OkStatus();
  if (!buffer_.empty()) {
    seal = SealBlock();
  }
  if (!seal.ok()) {
    // Do not publish a store missing its tail block; drop the tmp file.
    file_.Discard();
    return seal;
  }
  const Status committed = file_.Commit();
  if (!committed.ok()) {
    return Status(committed.code(),
                  StrCat("KEL2 close failed: ", file_.path(), ": ",
                         committed.message()));
  }
  return OkStatus();
}

}  // namespace kondo
