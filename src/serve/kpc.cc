#include "serve/kpc.h"

#include <cstring>

#include "common/strings.h"
#include "provenance/crc32.h"

namespace kondo {

// ---------------------------------------------------------------------------
// Primitives.

void KpcAppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void KpcAppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void KpcAppendI64(int64_t v, std::string* out) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((u >> (8 * i)) & 0xff));
  }
}

void KpcAppendF64(double v, std::string* out) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((u >> (8 * i)) & 0xff));
  }
}

void KpcAppendString(std::string_view v, std::string* out) {
  KpcAppendU32(static_cast<uint32_t>(v.size()), out);
  out->append(v.data(), v.size());
}

Status KpcCursor::Take(size_t n, const char** p) {
  if (data_.size() - pos_ < n) {
    return DataLossError(StrCat("KPC payload underrun: need ", n,
                                " bytes, have ", data_.size() - pos_));
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return OkStatus();
}

Status KpcCursor::ReadU8(uint8_t* v) {
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(1, &p));
  *v = static_cast<uint8_t>(*p);
  return OkStatus();
}

Status KpcCursor::ReadU32(uint32_t* v) {
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(4, &p));
  uint32_t u = 0;
  for (int i = 0; i < 4; ++i) {
    u |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = u;
  return OkStatus();
}

Status KpcCursor::ReadI64(int64_t* v) {
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(8, &p));
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  std::memcpy(v, &u, sizeof(u));
  return OkStatus();
}

Status KpcCursor::ReadF64(double* v) {
  int64_t bits = 0;
  KONDO_RETURN_IF_ERROR(ReadI64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return OkStatus();
}

Status KpcCursor::ReadString(std::string* v) {
  uint32_t size = 0;
  KONDO_RETURN_IF_ERROR(ReadU32(&size));
  if (size > kKpcMaxPayloadBytes) {
    return DataLossError(StrCat("KPC string too large: ", size));
  }
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(size, &p));
  v->assign(p, size);
  return OkStatus();
}

Status KpcCursor::Done() const {
  if (pos_ != data_.size()) {
    return DataLossError(StrCat("KPC payload has ", data_.size() - pos_,
                                " trailing bytes"));
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Framing.

void AppendKpcFrame(KpcKind kind, std::string_view payload,
                    std::string* out) {
  const size_t header_start = out->size();
  out->append(kKpcMagic, sizeof(kKpcMagic));
  KpcAppendU8(static_cast<uint8_t>(kind), out);
  KpcAppendU8(0, out);
  KpcAppendU8(0, out);
  KpcAppendU8(0, out);
  KpcAppendU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
  // CRC over kind..payload — everything after the magic.
  const uint32_t crc =
      Crc32(out->data() + header_start + sizeof(kKpcMagic),
            out->size() - header_start - sizeof(kKpcMagic));
  KpcAppendU32(crc, out);
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
  uint32_t payload_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    payload_bytes |=
        static_cast<uint32_t>(static_cast<uint8_t>(header[8 + i])) << (8 * i);
  }
  if (payload_bytes > kKpcMaxPayloadBytes) {
    return DataLossError(
        StrCat("KPC frame payload too large: ", payload_bytes));
  }
  KpcFrame frame;
  frame.kind = static_cast<KpcKind>(static_cast<uint8_t>(header[4]));
  frame.payload.resize(payload_bytes);
  if (payload_bytes > 0) {
    KONDO_RETURN_IF_ERROR(conn.ReadFully(frame.payload.data(),
                                         payload_bytes));
  }
  char trailer[kKpcTrailerBytes];
  KONDO_RETURN_IF_ERROR(conn.ReadFully(trailer, sizeof(trailer)));
  uint32_t wire_crc = 0;
  for (int i = 0; i < 4; ++i) {
    wire_crc |=
        static_cast<uint32_t>(static_cast<uint8_t>(trailer[i])) << (8 * i);
  }
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

std::string FetchSubsetRequest::Encode() const {
  std::string out;
  KpcAppendString(artifact, &out);
  KpcAppendI64(begin, &out);
  KpcAppendI64(end, &out);
  return out;
}

StatusOr<FetchSubsetRequest> FetchSubsetRequest::Decode(
    std::string_view payload) {
  FetchSubsetRequest req;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.artifact));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.end));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string FetchSubsetResponse::Encode() const {
  std::string out;
  KpcAppendI64(fingerprint_bytes, &out);
  KpcAppendU32(fingerprint_crc, &out);
  KpcAppendI64(begin, &out);
  KpcAppendI64(end, &out);
  KpcAppendU32(static_cast<uint32_t>(present.size()), &out);
  for (uint8_t p : present) {
    KpcAppendU8(p, &out);
  }
  KpcAppendU32(static_cast<uint32_t>(values.size()), &out);
  for (double v : values) {
    KpcAppendF64(v, &out);
  }
  return out;
}

StatusOr<FetchSubsetResponse> FetchSubsetResponse::Decode(
    std::string_view payload) {
  FetchSubsetResponse resp;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.fingerprint_bytes));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&resp.fingerprint_crc));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.end));
  // Each count is bounded by the bytes its elements must still consume
  // before any allocation happens: a hostile 32-bit count can never command
  // more memory than the (already frame-capped) payload that carried it.
  uint32_t count = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  if (count > cur.remaining()) {
    return DataLossError(StrCat("KPC subset present count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  resp.present.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KONDO_RETURN_IF_ERROR(cur.ReadU8(&resp.present[i]));
  }
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  if (count > cur.remaining() / 8) {  // 8 payload bytes per f64 value.
    return DataLossError(StrCat("KPC subset value count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  resp.values.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KONDO_RETURN_IF_ERROR(cur.ReadF64(&resp.values[i]));
  }
  KONDO_RETURN_IF_ERROR(cur.Done());
  return resp;
}

std::string QueryRequest::Encode() const {
  std::string out;
  KpcAppendString(store, &out);
  KpcAppendI64(file_id, &out);
  KpcAppendI64(begin, &out);
  KpcAppendI64(end, &out);
  KpcAppendU8(runs_only, &out);
  return out;
}

StatusOr<QueryRequest> QueryRequest::Decode(std::string_view payload) {
  QueryRequest req;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.store));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.file_id));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.end));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&req.runs_only));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string EventBatch::Encode() const {
  std::string out;
  KpcAppendU32(static_cast<uint32_t>(events.size()), &out);
  for (const Event& event : events) {
    KpcAppendI64(event.id.pid, &out);
    KpcAppendI64(event.id.file_id, &out);
    KpcAppendU8(static_cast<uint8_t>(event.type), &out);
    KpcAppendI64(event.offset, &out);
    KpcAppendI64(event.size, &out);
  }
  return out;
}

StatusOr<EventBatch> EventBatch::Decode(std::string_view payload) {
  EventBatch batch;
  KpcCursor cur(payload);
  uint32_t count = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  // Each event is 33 wire bytes (pid + file_id + type + offset + size), so
  // the count is provably short before the batch allocates anything.
  if (count > cur.remaining() / 33) {
    return DataLossError(StrCat("KPC event batch count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  batch.events.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    Event& event = batch.events[i];
    uint8_t type = 0;
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.id.pid));
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.id.file_id));
    KONDO_RETURN_IF_ERROR(cur.ReadU8(&type));
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.offset));
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.size));
    event.type = static_cast<EventType>(type);
  }
  KONDO_RETURN_IF_ERROR(cur.Done());
  return batch;
}

std::string QueryDone::Encode() const {
  std::string out;
  KpcAppendI64(events_total, &out);
  KpcAppendU32(static_cast<uint32_t>(runs.size()), &out);
  for (int64_t pid : runs) {
    KpcAppendI64(pid, &out);
  }
  KpcAppendI64(blocks_considered, &out);
  KpcAppendI64(blocks_skipped, &out);
  KpcAppendI64(blocks_decoded, &out);
  return out;
}

StatusOr<QueryDone> QueryDone::Decode(std::string_view payload) {
  QueryDone done;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.events_total));
  uint32_t count = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  if (count > cur.remaining() / 8) {  // 8 payload bytes per run pid.
    return DataLossError(StrCat("KPC run count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  done.runs.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.runs[i]));
  }
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.blocks_considered));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.blocks_skipped));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.blocks_decoded));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return done;
}

std::string SubmitRequest::Encode() const {
  std::string out;
  KpcAppendString(program, &out);
  KpcAppendI64(seed, &out);
  KpcAppendI64(max_evals, &out);
  KpcAppendI64(max_iter, &out);
  return out;
}

StatusOr<SubmitRequest> SubmitRequest::Decode(std::string_view payload) {
  SubmitRequest req;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.program));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.seed));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.max_evals));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.max_iter));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string SubmitResponse::Encode() const {
  std::string out;
  KpcAppendU8(accepted, &out);
  KpcAppendI64(job_id, &out);
  KpcAppendI64(queue_depth, &out);
  KpcAppendString(message, &out);
  return out;
}

StatusOr<SubmitResponse> SubmitResponse::Decode(std::string_view payload) {
  SubmitResponse resp;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&resp.accepted));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.job_id));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.queue_depth));
  KONDO_RETURN_IF_ERROR(cur.ReadString(&resp.message));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return resp;
}

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

namespace {

void AppendVerbLatency(const VerbLatency& v, std::string* out) {
  KpcAppendI64(v.count, out);
  KpcAppendI64(v.total_micros, out);
  KpcAppendI64(v.max_micros, out);
  for (int i = 0; i < kKpcLatencyBuckets; ++i) {
    KpcAppendI64(v.buckets[i], out);
  }
}

Status ReadVerbLatency(KpcCursor* cur, VerbLatency* v) {
  KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->count));
  KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->total_micros));
  KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->max_micros));
  for (int i = 0; i < kKpcLatencyBuckets; ++i) {
    KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->buckets[i]));
  }
  return OkStatus();
}

using Snapshot = ServeStatsSnapshot;

/// ServeStatsSnapshot's scalar counters, in wire order.
constexpr int64_t Snapshot::*kStatsCounters[] = {
    &Snapshot::cache_hits, &Snapshot::cache_misses, &Snapshot::cache_evictions,
    &Snapshot::cache_stale_evictions, &Snapshot::cache_entries,
    &Snapshot::cache_bytes, &Snapshot::cache_capacity_bytes,
    &Snapshot::sessions_accepted, &Snapshot::sessions_active,
    &Snapshot::requests_total, &Snapshot::protocol_errors,
    &Snapshot::campaigns_submitted, &Snapshot::campaigns_rejected,
    &Snapshot::campaigns_completed, &Snapshot::campaigns_failed,
    &Snapshot::campaign_queue_depth, &Snapshot::campaign_inflight,
    &Snapshot::lineage_bytes_written, &Snapshot::stores_open,
    &Snapshot::stores_reopened,
};

}  // namespace

std::string ServeStatsSnapshot::Encode() const {
  std::string out;
  for (int64_t Snapshot::*counter : kStatsCounters) {
    KpcAppendI64(this->*counter, &out);
  }
  for (int v = 0; v < kKpcVerbCount; ++v) {
    AppendVerbLatency(verbs[v], &out);
  }
  return out;
}

StatusOr<ServeStatsSnapshot> ServeStatsSnapshot::Decode(
    std::string_view payload) {
  ServeStatsSnapshot s;
  KpcCursor cur(payload);
  for (int64_t Snapshot::*counter : kStatsCounters) {
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&(s.*counter)));
  }
  for (int v = 0; v < kKpcVerbCount; ++v) {
    KONDO_RETURN_IF_ERROR(ReadVerbLatency(&cur, &s.verbs[v]));
  }
  KONDO_RETURN_IF_ERROR(cur.Done());
  return s;
}

std::string KpcError::Encode() const {
  std::string out;
  KpcAppendU32(code, &out);
  KpcAppendString(message, &out);
  return out;
}

StatusOr<KpcError> KpcError::Decode(std::string_view payload) {
  KpcError err;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&err.code));
  KONDO_RETURN_IF_ERROR(cur.ReadString(&err.message));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return err;
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
