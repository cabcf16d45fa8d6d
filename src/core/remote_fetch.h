#ifndef KONDO_CORE_REMOTE_FETCH_H_
#define KONDO_CORE_REMOTE_FETCH_H_

#include <cstdint>
#include <memory>
#include <string>

#include "array/index.h"
#include "array/kdf_file.h"
#include "common/statusor.h"

namespace kondo {

/// A source the user-end runtime can pull missing elements from — the
/// Section VI extension: "a container runtime can use audited information
/// to pull missing data offsets from a remote server, when requested".
class RemoteSource {
 public:
  virtual ~RemoteSource() = default;

  /// Fetches the element at `index`. Implementations may fail (offline,
  /// element genuinely absent).
  virtual StatusOr<double> Fetch(const Index& index) = 0;

  /// Bytes transferred so far (for the size-accounting in reports).
  virtual int64_t bytes_fetched() const = 0;
};

/// A RemoteSource backed by the original (un-debloated) KDF file — the
/// registry copy the container was built from. Each fetch costs one
/// element-sized transfer plus a configurable simulated latency.
class KdfRemoteSource final : public RemoteSource {
 public:
  /// Opens the registry copy at `path`. `latency_micros` models the
  /// round-trip cost of one remote request (busy-waited).
  static StatusOr<std::unique_ptr<KdfRemoteSource>> Open(
      const std::string& path, int64_t latency_micros = 0);

  StatusOr<double> Fetch(const Index& index) override;
  int64_t bytes_fetched() const override { return bytes_fetched_; }

  /// Number of fetch round-trips issued.
  int64_t fetch_count() const { return fetch_count_; }

 private:
  KdfRemoteSource(KdfReader reader, int64_t latency_micros)
      : reader_(std::move(reader)), latency_micros_(latency_micros) {}

  KdfReader reader_;
  int64_t latency_micros_;
  int64_t bytes_fetched_ = 0;
  int64_t fetch_count_ = 0;
};

/// Failure policy of the runtime's remote fallback: how hard to try the
/// remote source before surfacing the paper's data-missing error, and when
/// to stop bothering the remote entirely.
struct FetchPolicy {
  /// Fetch attempts per missing element (>= 1). Attempt k > 1 busy-waits
  /// `backoff_micros << (k - 2)` first (exponential backoff).
  int max_attempts = 1;
  int64_t backoff_micros = 0;

  /// After this many *consecutive* elements exhaust every attempt, the
  /// runtime enters degraded mode: the remote is skipped and Null accesses
  /// surface data-missing immediately (no pointless round-trips against a
  /// dead server). 0 disables degradation. A successful fetch resets the
  /// consecutive count.
  int degrade_after = 0;
};

}  // namespace kondo

#endif  // KONDO_CORE_REMOTE_FETCH_H_
