#ifndef KONDO_PROVENANCE_PROVENANCE_STORE_H_
#define KONDO_PROVENANCE_PROVENANCE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/event.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "provenance/kel2_reader.h"
#include "provenance/provenance_query.h"

namespace kondo {

/// A long-lived, thread-safe handle on an open KEL2 store — the query
/// engine's entry points made callable from concurrent server sessions.
///
/// ProvenanceQuery itself is deliberately single-threaded (its decode memo
/// and the reader's seek+read share unguarded state), so this wrapper owns
/// reader + query behind one mutex: queries against the same store
/// serialise, queries against different stores run in parallel — which
/// matches the serve layer's open-store pool, one ProvenanceStore per
/// artifact. The memo survives across requests, so a hot region decodes
/// each block at most once for the store's lifetime.
class ProvenanceStore {
 public:
  /// Opens a KEL2 store; any other file is rejected (kDataLoss, from
  /// Kel2Reader::Open).
  static StatusOr<std::unique_ptr<ProvenanceStore>> Open(
      const std::string& path);

  /// Data-access events of `file_id` overlapping [begin, end), store order.
  /// With `query_stats` non-null, receives the engine counters attributable
  /// to *this* query alone (computed as a delta under the store lock, so
  /// concurrent queries cannot bleed into it).
  StatusOr<std::vector<Event>> EventsOverlapping(
      int64_t file_id, int64_t begin, int64_t end,
      ProvenanceQueryStats* query_stats = nullptr) KONDO_EXCLUDES(mu_);

  /// Sorted, deduplicated pids touching [begin, end) of `file_id`.
  StatusOr<std::vector<int64_t>> RunsTouching(int64_t file_id, int64_t begin,
                                              int64_t end)
      KONDO_EXCLUDES(mu_);

  /// Snapshot of the engine's in-situ counters.
  ProvenanceQueryStats QueryStats() const KONDO_EXCLUDES(mu_);

  int64_t NumBlocks() const { return num_blocks_; }
  int64_t NumEvents() const { return num_events_; }
  const std::string& path() const { return path_; }

 private:
  explicit ProvenanceStore(Kel2Reader reader);

  const std::string path_;
  const int64_t num_blocks_;
  const int64_t num_events_;
  mutable Mutex mu_;
  Kel2Reader reader_ KONDO_GUARDED_BY(mu_);
  ProvenanceQuery query_ KONDO_GUARDED_BY(mu_);
};

}  // namespace kondo

#endif  // KONDO_PROVENANCE_PROVENANCE_STORE_H_
