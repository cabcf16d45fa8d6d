#ifndef KONDO_CORE_RUNTIME_H_
#define KONDO_CORE_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "core/remote_fetch.h"
#include "pack/pack_reader.h"
#include "workloads/program.h"

namespace kondo {

/// Statistics of debloated replays.
struct RuntimeStats {
  int64_t reads = 0;
  int64_t hits = 0;            // Served without a remote round trip.
  int64_t misses = 0;          // Reads that surfaced an error.
  int64_t remote_fetches = 0;  // Pulled from the remote source.
  int64_t bytes_fetched = 0;
  int64_t fetch_retries = 0;   // Re-issued requests after transient failures.
  int64_t fetch_failures = 0;  // Elements whose fetch exhausted every attempt.
  bool degraded = false;       // Remote disabled after repeated failures.
};

/// Kondo's user-end run-time system (Section III): serves the application's
/// reads from the KDP package that carries `D_Θ`, decoding (and CRC-checking)
/// only the chunks a run touches. An access to a Null index raises the "data
/// missing" exception (StatusCode::kDataMissing) — unless a remote source is
/// attached, in which case the runtime pulls the element from it under the
/// FetchPolicy and caches it so each missing element is fetched at most once
/// (Section VI's path to effective recall 1). `missing_log()` records every
/// read that surfaced an error.
class DebloatRuntime {
 public:
  /// `remote` may be null: Null accesses then surface data-missing.
  explicit DebloatRuntime(std::unique_ptr<PackReader> package,
                          std::unique_ptr<RemoteSource> remote = nullptr,
                          const FetchPolicy& policy = {})
      : package_(std::move(package)),
        remote_(std::move(remote)),
        policy_(policy) {}

  const PackReader& package() const { return *package_; }
  const RuntimeStats& stats() const { return stats_; }
  const std::vector<Index>& missing_log() const { return missing_log_; }

  /// Serves one element read: the package first, then the remote source.
  /// A damaged chunk fails the read with kDataLoss naming the chunk.
  StatusOr<double> Read(const Index& index);

  /// Replays a full program run. Returns OK when every access was served;
  /// otherwise the first error (the replay still executes to completion so
  /// `missing_log` is complete for the run).
  Status ReplayRun(const Program& program, const ParamValue& v);

  /// Clears the counters (leaving degraded mode) and the missing log.
  void ResetStats();

 private:
  /// Pulls a Null element from the remote under the fetch policy.
  StatusOr<double> FetchRemote(const Index& index);

  std::unique_ptr<PackReader> package_;
  std::unique_ptr<RemoteSource> remote_;
  FetchPolicy policy_;
  int consecutive_failures_ = 0;
  std::unordered_map<int64_t, double> fetched_cache_;
  RuntimeStats stats_;
  std::vector<Index> missing_log_;
};

}  // namespace kondo

#endif  // KONDO_CORE_RUNTIME_H_
