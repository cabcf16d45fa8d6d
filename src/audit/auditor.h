#ifndef KONDO_AUDIT_AUDITOR_H_
#define KONDO_AUDIT_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <string>

#include "array/index_set.h"
#include "audit/event_log.h"
#include "audit/offset_mapper.h"
#include "audit/traced_file.h"
#include "common/statusor.h"

namespace kondo {

/// Summary of one audited execution: the fine-grained lineage the paper's
/// auditing system `AS` produces for a single run.
struct AuditReport {
  /// Merged accessed byte ranges of the data file.
  IntervalSet accessed_ranges;
  /// The index subset `I_v` recovered from the byte ranges via the file's
  /// metadata (Definition 2's debloat-test output).
  IndexSet accessed_indices;
  /// Raw events recorded.
  int64_t num_events = 0;
  /// True when a write to the data file was observed (the data array is
  /// expected to be read-only; Section III).
  bool saw_writes = false;
};

/// Persists a finished run's event log to a durable store. The audit layer
/// is agnostic to the on-disk format; factories live in
/// src/provenance/persist.h (`MakeKel2Persister`, `CampaignLineageSink`).
///
/// Single-writer contract: persisters are stateful writers over one store
/// and are NOT safe to invoke concurrently — two interleaved calls can tear
/// blocks or drop runs. Callers running audited tests in parallel must
/// funnel persistence through one thread: the campaign executor does this
/// via `ResultCollector` (src/exec/result_collector.h), which persists
/// consumed runs in candidate order and rejects concurrent use with
/// kFailedPrecondition. For ad-hoc concurrent callers,
/// `MakeSerializedPersister` (src/provenance/persist.h) wraps any persister
/// with a mutex so racing persist calls serialize instead of corrupting
/// the store.
using AuditPersistFn = std::function<Status(const EventLog&)>;

/// Runs one audited execution of an application body against a KDF data
/// file: opens the file through the interposition shim, hands the shim to
/// `body`, and distills the recorded events into an AuditReport.
///
/// `body` receives the traced file and performs whatever element reads the
/// application under test performs. When `log_out` is non-null the run's
/// raw event log is moved into it, so the caller can persist it: the
/// campaign executor's single-writer ResultCollector persists consumed runs
/// in candidate order; a lone run can hand it to `MakeKel2Persister`.
StatusOr<AuditReport> RunAudited(
    const std::string& path, int64_t pid,
    const std::function<Status(TracedFile&)>& body,
    EventLog* log_out = nullptr);

}  // namespace kondo

#endif  // KONDO_AUDIT_AUDITOR_H_
