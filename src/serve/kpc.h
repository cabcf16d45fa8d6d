#ifndef KONDO_SERVE_KPC_H_
#define KONDO_SERVE_KPC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "audit/event.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/statusor.h"
#include "serve/kpc_codec.h"

namespace kondo {

/// KPC — Kondo Protocol, CRC-framed (docs/FORMATS.md). Every message on a
/// serve connection is one frame:
///
///   offset size
///   0      4    magic "KPC1"
///   4      1    u8 kind (KpcKind)
///   5      3    reserved (0)
///   8      4    u32 payload_bytes (LE)
///   12     n    payload
///   12+n   4    u32 crc32 (LE) over bytes [4, 12+n) — kind, reserved,
///               length, payload; the IEEE/zlib polynomial of
///               provenance/crc32.h
///
/// Payload fields follow the wire rules of serve/kpc_codec.h: little-endian
/// fixed-width integers, u32 length-prefixed strings and lists. Encoding is
/// a pure function of the message, so two responses carrying equal data are
/// byte-identical on the wire — the property the subset cache's hit/miss
/// contract is tested against.
constexpr char kKpcMagic[4] = {'K', 'P', 'C', '1'};
constexpr size_t kKpcHeaderBytes = 12;
constexpr size_t kKpcTrailerBytes = 4;

/// Hard ceiling on a frame payload; a header declaring more is corruption
/// (kDataLoss), not an allocation request.
constexpr uint32_t kKpcMaxPayloadBytes = 1u << 26;

enum class KpcKind : uint8_t {
  kError = 0,
  kFetchSubsetRequest = 1,
  kFetchSubsetResponse = 2,
  kQueryRequest = 3,
  kEventBatch = 4,   // Streamed query results; zero or more per query.
  kQueryDone = 5,    // Terminates an event stream; carries totals.
  kSubmitRequest = 6,
  kSubmitResponse = 7,
  kStatsRequest = 8,
  kStatsResponse = 9,
  // Fleet worker verbs (payload structs in src/fleet/fleet_protocol.h; the
  // coordinator/worker lifecycle is documented in docs/ARCHITECTURE.md).
  kHello = 10,        // Coordinator -> worker: campaign spec; ack back.
  kRunShard = 11,     // Coordinator -> worker: one shard assignment.
  kShardResult = 12,  // Worker -> coordinator: sealed .kss + .kel2 bytes.
  kHeartbeat = 13,    // Worker -> coordinator: liveness while fuzzing.
};

struct KpcFrame {
  KpcKind kind = KpcKind::kError;
  std::string payload;
};

/// Appends the full frame (header, payload, CRC trailer) to `out`.
void AppendKpcFrame(KpcKind kind, std::string_view payload, std::string* out);

/// Encodes and writes one frame.
Status WriteKpcFrame(Connection& conn, KpcKind kind,
                     std::string_view payload);

/// Reads and verifies one frame. kOutOfRange on orderly EOF before a
/// frame; kDataLoss on bad magic, oversized length, truncation, or CRC
/// mismatch — after which the stream is unrecoverable and the connection
/// should be dropped.
StatusOr<KpcFrame> ReadKpcFrame(Connection& conn);

/// ReadKpcFrame for the requesting side: a kError frame comes back as the
/// Status it carries, every other frame as-is.
StatusOr<KpcFrame> ReadKpcReply(Connection& conn);

// ---------------------------------------------------------------------------
// Verb payloads. Each lists its fields once, in wire order; kpc_codec.h
// derives Encode() and Decode() from that list.

inline constexpr char kKpcPayload[] = "KPC payload";

template <class T>
using KpcMessage = WireMessage<T, kKpcPayload>;

/// fetch-subset: a debloated runtime asks for the D_Θ slice covering
/// linear element ids [begin, end) of a pooled `.kdp` package.
struct FetchSubsetRequest : KpcMessage<FetchSubsetRequest> {
  std::string artifact;  // Pool-relative name, e.g. "main.kdp".
  int64_t begin = 0;
  int64_t end = 0;

  template <class V>
  void Fields(V& v) {
    v(artifact, begin, end);
  }
};

/// The slice, stamped with the artifact fingerprint it was cut from (the
/// same whole-file byte-count + CRC32 the shard KSS `A` line records).
/// Null elements carry presence bit 0 and no value — the runtime maps them
/// back to kDataMissing.
struct FetchSubsetResponse : KpcMessage<FetchSubsetResponse> {
  int64_t fingerprint_bytes = 0;
  uint32_t fingerprint_crc = 0;
  int64_t begin = 0;
  int64_t end = 0;
  std::vector<uint8_t> present;  // One per element of [begin, end).
  std::vector<double> values;    // One per present element, in order.

  template <class V>
  void Fields(V& v) {
    v(fingerprint_bytes, fingerprint_crc, begin, end, present, values);
  }
  /// kDataLoss unless begin <= end, `present` has end - begin bytes, each
  /// 0 or 1, and `values` has one entry per 1.
  Status Check() const;
};

/// query-provenance: which events / runs of a pooled KEL2 store touch byte
/// range [begin, end) of `file_id`. Executed server-side with in-situ
/// block skipping; events stream back in kEventBatch frames.
struct QueryRequest : KpcMessage<QueryRequest> {
  std::string store;  // Pool-relative name, e.g. "merged.kel2".
  int64_t file_id = 1;
  int64_t begin = 0;
  int64_t end = 0;
  uint8_t runs_only = 0;  // 1 = suppress event batches, send only totals.

  template <class V>
  void Fields(V& v) {
    v(store, file_id, begin, end, runs_only);
  }
};

/// One streamed batch of matching events, in store order.
struct EventBatch : KpcMessage<EventBatch> {
  std::vector<Event> events;

  template <class V>
  void Fields(V& v) {
    v(events);
  }
};

/// Terminates a query stream: totals plus the engine's in-situ block
/// counters for this query alone (each query counts from zero).
struct QueryDone : KpcMessage<QueryDone> {
  int64_t events_total = 0;
  std::vector<int64_t> runs;  // Sorted, deduplicated pids.
  int64_t blocks_considered = 0;
  int64_t blocks_skipped = 0;
  int64_t blocks_decoded = 0;

  template <class V>
  void Fields(V& v) {
    v(events_total, runs, blocks_considered, blocks_skipped, blocks_decoded);
  }
};

/// submit-campaign: enqueue a fuzz/debloat campaign for a registered
/// single-file program on the server's shared ThreadPool.
struct SubmitRequest : KpcMessage<SubmitRequest> {
  std::string program;
  int64_t seed = 1;
  int64_t max_evals = 0;  // 0 = program default budget.
  int64_t max_iter = 0;   // 0 = config default.

  template <class V>
  void Fields(V& v) {
    v(program, seed, max_evals, max_iter);
  }
};

/// Admission verdict. `accepted == 0` is backpressure: the global queue is
/// full or the client is at its in-flight cap; `message` says which.
struct SubmitResponse : KpcMessage<SubmitResponse> {
  uint8_t accepted = 0;
  int64_t job_id = -1;
  int64_t queue_depth = 0;  // Depth observed at admission time.
  std::string message;

  template <class V>
  void Fields(V& v) {
    v(accepted, job_id, queue_depth, message);
  }
};

/// Per-verb latency histogram: bucket i counts requests with latency in
/// [2^(i-1), 2^i) microseconds (bucket 0: < 1us); the last bucket absorbs
/// overflow.
constexpr int kKpcLatencyBuckets = 22;

struct VerbLatency {
  int64_t count = 0;
  int64_t total_micros = 0;
  int64_t max_micros = 0;
  int64_t buckets[kKpcLatencyBuckets] = {};

  template <class V>
  void Fields(V& v) {
    v(count, total_micros, max_micros, buckets);
  }
};

/// The verbs with latency accounting, indexing ServeStatsSnapshot::verbs.
enum KpcVerb : int {
  kVerbFetchSubset = 0,
  kVerbQuery = 1,
  kVerbSubmit = 2,
  kVerbStats = 3,
  kKpcVerbCount = 4,
};

/// Returns the display name of a verb index ("fetch-subset", ...).
const char* KpcVerbName(int verb);

/// stats: a point-in-time snapshot of the daemon's counters.
struct ServeStatsSnapshot : KpcMessage<ServeStatsSnapshot> {
  // Subset cache.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;        // Capacity (LRU) evictions.
  int64_t cache_stale_evictions = 0;  // Fingerprint-changed invalidations.
  int64_t cache_entries = 0;
  int64_t cache_bytes = 0;
  int64_t cache_capacity_bytes = 0;

  // Sessions.
  int64_t sessions_accepted = 0;
  int64_t sessions_active = 0;
  int64_t requests_total = 0;
  int64_t protocol_errors = 0;

  // Campaign admission + execution.
  int64_t campaigns_submitted = 0;
  int64_t campaigns_rejected = 0;
  int64_t campaigns_completed = 0;
  int64_t campaigns_failed = 0;
  int64_t campaign_queue_depth = 0;  // Accepted, not yet running.
  int64_t campaign_inflight = 0;     // Running right now.
  int64_t lineage_bytes_written = 0;  // Kel2Writer::bytes_written() totals.

  // Open-store pool.
  int64_t stores_open = 0;
  int64_t stores_reopened = 0;  // Stale fingerprint forced a reopen.

  VerbLatency verbs[kKpcVerbCount];

  template <class V>
  void Fields(V& v) {
    v(cache_hits, cache_misses, cache_evictions, cache_stale_evictions,
      cache_entries, cache_bytes, cache_capacity_bytes, sessions_accepted,
      sessions_active, requests_total, protocol_errors, campaigns_submitted,
      campaigns_rejected, campaigns_completed, campaigns_failed,
      campaign_queue_depth, campaign_inflight, lineage_bytes_written,
      stores_open, stores_reopened, verbs);
  }
};

/// Error frame payload: a Status on the wire.
struct KpcError : KpcMessage<KpcError> {
  uint32_t code = 0;  // StatusCode cast; never kOk on the wire.
  std::string message;

  template <class V>
  void Fields(V& v) {
    v(code, message);
  }
  /// kDataLoss unless `code` is an error StatusCode.
  Status Check() const;

  static KpcError FromStatus(const Status& status);
  Status ToStatus() const;
};

}  // namespace kondo

#endif  // KONDO_SERVE_KPC_H_
