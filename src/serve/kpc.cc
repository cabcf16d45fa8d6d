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

std::string FetchSubsetRequest::Encode() const {
  std::string out;
  AppendString(artifact, &out);
  AppendI64(begin, &out);
  AppendI64(end, &out);
  return out;
}

StatusOr<FetchSubsetRequest> FetchSubsetRequest::Decode(
    std::string_view payload) {
  FetchSubsetRequest req;
  ByteCursor cur(payload, "KPC payload");
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.artifact));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.end));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string FetchSubsetResponse::Encode() const {
  std::string out;
  AppendI64(fingerprint_bytes, &out);
  AppendU32(fingerprint_crc, &out);
  AppendI64(begin, &out);
  AppendI64(end, &out);
  AppendU32(static_cast<uint32_t>(present.size()), &out);
  out.append(present.begin(), present.end());
  AppendU32(static_cast<uint32_t>(values.size()), &out);
  for (double v : values) {
    AppendF64(v, &out);
  }
  return out;
}

StatusOr<FetchSubsetResponse> FetchSubsetResponse::Decode(
    std::string_view payload) {
  FetchSubsetResponse resp;
  ByteCursor cur(payload, "KPC payload");
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.fingerprint_bytes));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&resp.fingerprint_crc));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.end));
  // Each count is bounded by the bytes its elements must still consume
  // before any allocation happens: a hostile 32-bit count can never command
  // more memory than the (already frame-capped) payload that carried it.
  uint32_t count = 0;
  const char* present = nullptr;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  KONDO_RETURN_IF_ERROR(cur.ReadBytes(count, &present));
  resp.present.assign(present, present + count);
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
  AppendString(store, &out);
  AppendI64(file_id, &out);
  AppendI64(begin, &out);
  AppendI64(end, &out);
  AppendU8(runs_only, &out);
  return out;
}

StatusOr<QueryRequest> QueryRequest::Decode(std::string_view payload) {
  QueryRequest req;
  ByteCursor cur(payload, "KPC payload");
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
  AppendU32(static_cast<uint32_t>(events.size()), &out);
  for (const Event& event : events) {
    AppendI64(event.id.pid, &out);
    AppendI64(event.id.file_id, &out);
    AppendU8(static_cast<uint8_t>(event.type), &out);
    AppendI64(event.offset, &out);
    AppendI64(event.size, &out);
  }
  return out;
}

StatusOr<EventBatch> EventBatch::Decode(std::string_view payload) {
  EventBatch batch;
  ByteCursor cur(payload, "KPC payload");
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
  AppendI64(events_total, &out);
  AppendU32(static_cast<uint32_t>(runs.size()), &out);
  for (int64_t pid : runs) {
    AppendI64(pid, &out);
  }
  AppendI64(blocks_considered, &out);
  AppendI64(blocks_skipped, &out);
  AppendI64(blocks_decoded, &out);
  return out;
}

StatusOr<QueryDone> QueryDone::Decode(std::string_view payload) {
  QueryDone done;
  ByteCursor cur(payload, "KPC payload");
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
  AppendString(program, &out);
  AppendI64(seed, &out);
  AppendI64(max_evals, &out);
  AppendI64(max_iter, &out);
  return out;
}

StatusOr<SubmitRequest> SubmitRequest::Decode(std::string_view payload) {
  SubmitRequest req;
  ByteCursor cur(payload, "KPC payload");
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.program));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.seed));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.max_evals));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.max_iter));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string SubmitResponse::Encode() const {
  std::string out;
  AppendU8(accepted, &out);
  AppendI64(job_id, &out);
  AppendI64(queue_depth, &out);
  AppendString(message, &out);
  return out;
}

StatusOr<SubmitResponse> SubmitResponse::Decode(std::string_view payload) {
  SubmitResponse resp;
  ByteCursor cur(payload, "KPC payload");
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
  AppendI64(v.count, out);
  AppendI64(v.total_micros, out);
  AppendI64(v.max_micros, out);
  for (int i = 0; i < kKpcLatencyBuckets; ++i) {
    AppendI64(v.buckets[i], out);
  }
}

Status ReadVerbLatency(ByteCursor* cur, VerbLatency* v) {
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
    AppendI64(this->*counter, &out);
  }
  for (int v = 0; v < kKpcVerbCount; ++v) {
    AppendVerbLatency(verbs[v], &out);
  }
  return out;
}

StatusOr<ServeStatsSnapshot> ServeStatsSnapshot::Decode(
    std::string_view payload) {
  ServeStatsSnapshot s;
  ByteCursor cur(payload, "KPC payload");
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
  AppendU32(code, &out);
  AppendString(message, &out);
  return out;
}

StatusOr<KpcError> KpcError::Decode(std::string_view payload) {
  KpcError err;
  ByteCursor cur(payload, "KPC payload");
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
