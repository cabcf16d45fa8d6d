#ifndef KONDO_PROVENANCE_PERSIST_H_
#define KONDO_PROVENANCE_PERSIST_H_

#include <cstdint>
#include <functional>
#include <string>

#include "audit/auditor.h"
#include "audit/event_log.h"
#include "common/status.h"
#include "common/statusor.h"
#include "provenance/kel2_writer.h"

namespace kondo {

/// Builds an AuditPersistFn that writes the audited run's events to a KEL2
/// store at `path` — plug it into `RunAudited` to make the
/// block-compressed store the durable backend of the auditor.
AuditPersistFn MakeKel2Persister(std::string path,
                                 Kel2WriterOptions options = {});

/// Wraps `persist` so concurrent invocations serialize on an internal
/// mutex instead of interleaving writes to the store. Use when audited
/// runs race on one persister outside the campaign executor's ordered
/// ResultCollector channel (see the single-writer contract on
/// AuditPersistFn in src/audit/auditor.h). Serialization makes concurrent
/// persistence *safe*; it does not make the run order deterministic — only
/// the collector channel guarantees that.
AuditPersistFn MakeSerializedPersister(AuditPersistFn persist);

/// A campaign-scoped lineage sink: one open KEL2 store accumulating every
/// persisted run, in persist-call order. This is the store end of the
/// parallel campaign's single-writer channel — the ResultCollector invokes
/// `persister()` once per consumed debloat test, in candidate order, so the
/// resulting store is byte-identical to a serial (`jobs=1`) campaign.
///
/// Not thread-safe (see the AuditPersistFn single-writer contract in
/// src/audit/auditor.h); wrap `persister()` in MakeSerializedPersister for
/// unordered concurrent use. `Close()` seals the store; a sink destroyed
/// without Close keeps KEL2's at-most-one-torn-tail guarantee.
class CampaignLineageSink {
 public:
  static StatusOr<CampaignLineageSink> Create(const std::string& path,
                                              Kel2WriterOptions options = {});

  /// A persister appending to this sink's store. The returned function
  /// shares ownership of the writer and stays valid after the sink object
  /// goes out of scope (though only Close makes the tail block durable).
  AuditPersistFn persister() const;

  /// Runs persisted so far.
  int64_t runs() const { return *runs_; }

  /// Seals the buffered tail block and closes the store. Idempotent.
  Status Close();

 private:
  explicit CampaignLineageSink(std::shared_ptr<Kel2Writer> writer)
      : writer_(std::move(writer)), runs_(std::make_shared<int64_t>(0)) {}

  std::shared_ptr<Kel2Writer> writer_;
  std::shared_ptr<int64_t> runs_;
};

/// Outcome of re-blocking a KEL2 store.
struct CompactStats {
  int64_t events = 0;
  int64_t blocks = 0;
  int64_t input_bytes = 0;
  int64_t output_bytes = 0;

  double Ratio() const {
    return output_bytes > 0
               ? static_cast<double>(input_bytes) /
                     static_cast<double>(output_bytes)
               : 0.0;
  }
};

/// Rewrites the KEL2 store at `input_path` as a KEL2 store at
/// `output_path` with `options.events_per_block` events per block,
/// preserving event order exactly. Larger blocks compress better; smaller
/// ones let queries skip at finer granularity.
StatusOr<CompactStats> CompactLineageStore(const std::string& input_path,
                                           const std::string& output_path,
                                           Kel2WriterOptions options = {});

/// Size of `path` in bytes (kNotFound when missing).
StatusOr<int64_t> FileSizeBytes(const std::string& path);

}  // namespace kondo

#endif  // KONDO_PROVENANCE_PERSIST_H_
