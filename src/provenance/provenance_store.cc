#include "provenance/provenance_store.h"

#include <utility>

namespace kondo {

ProvenanceStore::ProvenanceStore(Kel2Reader reader)
    : path_(reader.path()),
      num_blocks_(reader.NumBlocks()),
      num_events_(reader.NumEvents()),
      reader_(std::move(reader)),
      query_(&reader_) {}

StatusOr<std::unique_ptr<ProvenanceStore>> ProvenanceStore::Open(
    const std::string& path) {
  KONDO_ASSIGN_OR_RETURN(Kel2Reader reader, Kel2Reader::Open(path));
  return std::unique_ptr<ProvenanceStore>(
      new ProvenanceStore(std::move(reader)));
}

namespace {

ProvenanceQueryStats StatsDelta(const ProvenanceQueryStats& before,
                                const ProvenanceQueryStats& after) {
  ProvenanceQueryStats delta;
  delta.queries = after.queries - before.queries;
  delta.blocks_considered = after.blocks_considered - before.blocks_considered;
  delta.blocks_skipped = after.blocks_skipped - before.blocks_skipped;
  delta.blocks_decoded = after.blocks_decoded - before.blocks_decoded;
  delta.block_cache_hits = after.block_cache_hits - before.block_cache_hits;
  delta.events_scanned = after.events_scanned - before.events_scanned;
  return delta;
}

}  // namespace

StatusOr<std::vector<Event>> ProvenanceStore::EventsOverlapping(
    int64_t file_id, int64_t begin, int64_t end,
    ProvenanceQueryStats* query_stats) {
  MutexLock lock(mu_);
  const ProvenanceQueryStats before = query_.stats();
  StatusOr<std::vector<Event>> events =
      query_.EventsOverlapping(file_id, begin, end);
  if (query_stats != nullptr) {
    *query_stats = StatsDelta(before, query_.stats());
  }
  return events;
}

StatusOr<std::vector<int64_t>> ProvenanceStore::RunsTouching(int64_t file_id,
                                                             int64_t begin,
                                                             int64_t end) {
  MutexLock lock(mu_);
  return query_.RunsTouching(file_id, begin, end);
}

ProvenanceQueryStats ProvenanceStore::QueryStats() const {
  MutexLock lock(mu_);
  return query_.stats();
}

}  // namespace kondo
