#ifndef KONDO_TESTS_SUPPORT_FAULT_ENV_H_
#define KONDO_TESTS_SUPPORT_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace kondo {

/// Deterministic fault schedule for a FaultInjectingEnv. Write-side
/// indices count *mutating* operations — WritableFile::Append,
/// WritableFile::Sync, and Env::RenameFile — in the order the env observes
/// them. Read-side indices count RandomAccessFile::Read calls over every
/// file the env opened, in call order.
struct FaultPlan {
  /// Seeds the per-file short-write decisions (and nothing else), so equal
  /// seeds replay equal failure sequences.
  uint64_t seed = 1;

  /// Simulate a process crash at this mutating-op index (-1 = never): the
  /// op and every later env operation fail with an "injected crash" error,
  /// and each open file is truncated to its last-synced byte (a kernel that
  /// dropped the page cache).
  int64_t crash_at_op = -1;

  /// Inject a single ENOSPC (kResourceExhausted) at this mutating-op index
  /// (-1 = never).
  int64_t enospc_at_op = -1;

  /// Per-Append probability of an injected short write, decided by a hash
  /// of (seed, file basename, per-file op index) — independent of global
  /// interleaving, so the failure sequence is identical at every --jobs.
  double short_write_prob = 0.0;

  /// Fail this read index with an injected EIO (-1 = never).
  int64_t eio_at_read = -1;

  /// Return half the bytes read at this read index, a count short of the
  /// request before end of file (-1 = never).
  int64_t short_read_at = -1;

  /// Flip the low bit of byte `flip_byte` of the file whose basename is
  /// `flip_file`, in every read that covers it (-1 = never).
  std::string flip_file;
  int64_t flip_byte = -1;
};

/// An Env decorator that deterministically injects IO faults per a
/// FaultPlan. Thread-safe; decisions that must be jobs-invariant are keyed
/// per file rather than on the global op counter.
class FaultInjectingEnv : public Env {
 public:
  FaultInjectingEnv(Env* base, const FaultPlan& plan);

  /// Opened files deliver the plan's read faults; a crash leaves reads
  /// untouched.
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, int64_t size) override;
  Status SyncDirOf(const std::string& path) override;
  FileKind GetFileKind(const std::string& path) override;

  /// Mutating operations observed so far (a clean run's total bounds the
  /// crash-point sweep).
  int64_t ops() const;

  /// Read calls observed so far (a clean run's total bounds the read-fault
  /// sweep).
  int64_t reads() const;

  /// True once crash_at_op has fired.
  bool crashed() const;

  /// Injected short writes + ENOSPCs delivered so far.
  int64_t faults_injected() const;

 private:
  friend class FaultInjectingFile;
  friend class FaultInjectingReadFile;

  enum class FaultAction { kProceed, kShortWrite, kEnospc, kCrash };
  struct FaultDecision {
    FaultAction action = FaultAction::kProceed;
    int64_t op = 0;
    size_t short_bytes = 0;
  };
  struct FileState {
    WritableFile* file = nullptr;  // Base file, owned by the wrapper.
    int64_t appended = 0;
    int64_t synced = 0;
    int64_t file_ops = 0;
  };

  /// Counts one mutating op and decides its fault. `append_path` names the
  /// file of an Append, whose short writes are keyed per file; it is
  /// nullptr for a Sync or a rename.
  FaultDecision Decide(const std::string* append_path, size_t size);
  /// The error a crash or ENOSPC decision reports for `what`; OK otherwise.
  Status DecisionError(const FaultDecision& d, const std::string& what) const;
  /// The crash error for `what` once the env has crashed; OK before.
  Status CheckNotCrashed(const std::string& what) const;
  /// Returns this read's index and advances the read counter.
  int64_t NextRead();
  Status CrashedError(const std::string& what) const;
  /// Must hold mu_. Fails every later op and drops unsynced bytes.
  void TriggerCrashLocked() KONDO_REQUIRES(mu_);
  void RecordAppended(const std::string& path, int64_t bytes);
  void RecordSynced(const std::string& path);
  void Unregister(const std::string& path);

  Env* const base_;
  const FaultPlan plan_;
  mutable Mutex mu_;
  int64_t ops_ KONDO_GUARDED_BY(mu_) = 0;
  int64_t reads_ KONDO_GUARDED_BY(mu_) = 0;
  bool crashed_ KONDO_GUARDED_BY(mu_) = false;
  bool enospc_fired_ KONDO_GUARDED_BY(mu_) = false;
  int64_t faults_ KONDO_GUARDED_BY(mu_) = 0;
  std::map<std::string, FileState> files_ KONDO_GUARDED_BY(mu_);
};

/// True when `status` carries an env-injected fault (crash, ENOSPC, short
/// write, or EIO) rather than a real IO failure.
bool IsInjectedFault(const Status& status);

/// Deterministic hash of (seed, a, b) to [0, 1) — SplitMix64-based. Used to
/// key injected per-candidate test failures on candidate identity so
/// retry/quarantine decisions are identical at every --jobs.
double FaultHash(uint64_t seed, int64_t a, int64_t b);

}  // namespace kondo

#endif  // KONDO_TESTS_SUPPORT_FAULT_ENV_H_
