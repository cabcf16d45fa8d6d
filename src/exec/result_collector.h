#ifndef KONDO_EXEC_RESULT_COLLECTOR_H_
#define KONDO_EXEC_RESULT_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "array/index_set.h"
#include "array/shape.h"
#include "audit/auditor.h"
#include "common/status.h"
#include "exec/test_candidate.h"

namespace kondo {

/// The single-writer end of a parallel campaign: funnels the event logs of
/// consumed debloat tests into the lineage store, in candidate order, and
/// merges their per-file access sets when asked to. The combined access
/// set I_Θ is the schedule's (`FuzzSchedule` keeps `discovered`), so the
/// collector does not keep a second copy.
///
/// Worker threads never touch the collector. They evaluate candidates
/// (possibly speculatively — a batch may be cut short by a stopping
/// criterion) and return `CandidateResult`s; the campaign's serial
/// consumption loop calls `Collect` exactly for the candidates the serial
/// schedule would have executed, in the order it would have executed them.
/// Consequently the on-disk KEL2 lineage is byte-identical to a
/// `jobs == 1` run: same runs, same order, nothing persisted for
/// speculative tests that the schedule never consumed.
///
/// Single-writer contract (see AuditPersistFn in src/audit/auditor.h):
/// `Collect` must not be invoked concurrently. The collector *enforces*
/// this — an overlapping call is rejected with kFailedPrecondition and the
/// store is left untouched — rather than silently interleaving blocks.
class ResultCollector {
 public:
  /// `shape` is the campaign's combined shape (not stored); `persist`
  /// (optional) receives each collected run's event log.
  explicit ResultCollector(Shape shape, AuditPersistFn persist = {});

  /// Declares the per-file shapes of a multi-file campaign; Collect then
  /// also merges `CandidateResult::per_file` entries elementwise.
  void EnablePerFile(const std::vector<Shape>& file_shapes);

  /// Consumes one test's outcome: merges `result.per_file` when enabled,
  /// then persists `result.log` through the sink. Returns the sink's
  /// error, or kFailedPrecondition on a concurrent call.
  Status Collect(const CandidateResult& result);

  /// Per-file unions (empty unless EnablePerFile was called).
  const std::vector<IndexSet>& per_file() const { return per_file_; }

  /// Moves the per-file unions out (collector is drained afterwards).
  std::vector<IndexSet> TakePerFile() { return std::move(per_file_); }

  /// Number of Collect calls that completed successfully.
  int64_t collected() const { return collected_; }

  /// Event logs persisted through the sink.
  int64_t persisted() const { return persisted_; }

 private:
  std::vector<IndexSet> per_file_;
  AuditPersistFn persist_;
  int64_t collected_ = 0;
  int64_t persisted_ = 0;
  std::atomic<bool> writing_{false};  // Guards the single-writer contract.
};

}  // namespace kondo

#endif  // KONDO_EXEC_RESULT_COLLECTOR_H_
