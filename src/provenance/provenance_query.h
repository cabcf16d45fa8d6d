#ifndef KONDO_PROVENANCE_PROVENANCE_QUERY_H_
#define KONDO_PROVENANCE_PROVENANCE_QUERY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "array/index_set.h"
#include "audit/event.h"
#include "audit/offset_mapper.h"
#include "common/interval_set.h"
#include "common/statusor.h"
#include "provenance/kel2_reader.h"

namespace kondo {

/// Counters proving the in-situ property: an interval query should decode
/// strictly fewer blocks than a full scan whenever the store is larger
/// than one block and accesses are not uniformly smeared.
struct ProvenanceQueryStats {
  int64_t queries = 0;
  int64_t blocks_considered = 0;  // Descriptors inspected.
  int64_t blocks_skipped = 0;     // Rejected from the descriptor alone.
  int64_t blocks_decoded = 0;     // Payloads actually read + CRC'd.
  int64_t block_cache_hits = 0;   // Served from the decode memo.
  int64_t events_scanned = 0;     // Events filtered after decode.
};

/// In-situ query engine over a KEL2 store. Answers lineage questions by
/// pruning on block descriptors (min/max offset, pid and file ranges)
/// before decoding payloads — Zhao & Krishnan's "query the compressed
/// representation" applied to Kondo's `<id, c, l, sz>` events. Decoded
/// blocks are memoized, so repeated queries over a hot region decode each
/// block at most once.
///
/// A "run" below is a pid: the auditor assigns each audited execution its
/// own process id, so per-run and per-pid are the same partition.
class ProvenanceQuery {
 public:
  /// `reader` must outlive the query object.
  explicit ProvenanceQuery(const Kel2Reader* reader);

  /// Data-access events of `file_id` with a positive size overlapping
  /// [begin, end), in store order. An event of size <= 0 covers no byte, so
  /// it matches nothing, however the store is blocked.
  StatusOr<std::vector<Event>> EventsOverlapping(int64_t file_id,
                                                 int64_t begin, int64_t end);

  /// Sorted, deduplicated pids with at least one data access of `file_id`
  /// overlapping [begin, end) — "which runs touched byte range [a,b)".
  StatusOr<std::vector<int64_t>> RunsTouching(int64_t file_id, int64_t begin,
                                              int64_t end);

  /// Merged accessed byte ranges of `file_id` across all runs.
  StatusOr<IntervalSet> AccessedRanges(int64_t file_id);

  /// Merged accessed byte ranges of `file_id` for one run.
  StatusOr<IntervalSet> AccessedRangesForRun(int64_t pid, int64_t file_id);

  /// Run -> total distinct bytes of `file_id` that run accessed (ranges
  /// merged per run before summing).
  StatusOr<std::map<int64_t, int64_t>> PerRunCoverage(int64_t file_id);

  /// Distinct-bytes-covered histogram of `file_id` with `bucket_bytes`-wide
  /// buckets from offset 0 to the store's maximum accessed end; each entry
  /// is in [0, bucket_bytes].
  StatusOr<std::vector<int64_t>> CoverageHistogram(int64_t file_id,
                                                   int64_t bucket_bytes);

  /// The element-index view of AccessedRanges for the carver: merged byte
  /// ranges mapped through the data file's layout into an IndexSet.
  StatusOr<IndexSet> AccessedIndices(int64_t file_id,
                                     const OffsetMapper& mapper);

  const ProvenanceQueryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ProvenanceQueryStats(); }

 private:
  /// Decodes block `index` through the memo.
  StatusOr<const std::vector<Event>*> Block(size_t index);

  const Kel2Reader* reader_;
  std::vector<std::optional<std::vector<Event>>> decoded_;
  ProvenanceQueryStats stats_;
};

}  // namespace kondo

#endif  // KONDO_PROVENANCE_PROVENANCE_QUERY_H_
