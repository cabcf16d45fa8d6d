#ifndef KONDO_COMMON_ENV_H_
#define KONDO_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace kondo {

/// What a path resolves to, as far as the durability layer cares: regular
/// files get the tmp-rename commit protocol, anything else (character
/// devices like /dev/full, pipes) is written in place.
enum class FileKind {
  kMissing,
  kRegular,
  kOther,
};

/// A sequential append-only output file. All artifact writers go through
/// this interface so a FaultInjectingEnv can interpose short writes,
/// ENOSPC, lost fsyncs, and crash points underneath them.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Appends `size` bytes. A short write is an error (the message names the
  /// path and the wrote/of byte counts).
  virtual Status Append(const void* data, size_t size) = 0;

  /// Pushes buffered bytes to the OS (no durability guarantee).
  virtual Status Flush() = 0;

  /// Flushes and fsyncs: on return, appended bytes survive a crash.
  virtual Status Sync() = 0;

  /// Closes the file. Idempotent; further Appends fail.
  virtual Status Close() = 0;

  const std::string& path() const { return path_; }

 protected:
  explicit WritableFile(std::string path) : path_(std::move(path)) {}

  std::string path_;
};

/// A read-only file for positioned reads. Reads carry their own offset, so
/// one file may serve concurrent readers.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Reads up to `n` bytes at `offset` into `buf` and returns the count
  /// read. The count is short only at end of file; an OS error is a Status
  /// naming the path and the error.
  virtual StatusOr<int64_t> Read(int64_t offset, int64_t n,
                                 char* buf) const = 0;

  /// Reads exactly `n` bytes at `offset`: a file that ends first is
  /// kDataLoss naming the path.
  Status ReadFully(int64_t offset, int64_t n, char* buf) const;

  /// File size in bytes, taken when the file was opened.
  int64_t Size() const { return size_; }

  const std::string& path() const { return path_; }

 protected:
  RandomAccessFile(std::string path, int64_t size)
      : path_(std::move(path)), size_(size) {}

  std::string path_;
  int64_t size_ = 0;
};

/// Filesystem access points: every artifact writer commits through
/// NewWritableFile/RenameFile and every file reader opens through
/// NewRandomAccessFile. Production code uses Env::Default() (the real
/// filesystem); tests inject a FaultInjectingEnv (write and commit faults)
/// or their own decorator (read faults).
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for positioned reads. A missing file is kNotFound; a
  /// directory or any other OS error is an error naming the path.
  virtual StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  /// Creates (truncates) `path` for writing.
  virtual StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Atomically renames `from` onto `to` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Removes `path`; removing a missing file is an error.
  virtual Status RemoveFile(const std::string& path) = 0;

  /// Truncates `path` to `size` bytes.
  virtual Status TruncateFile(const std::string& path, int64_t size) = 0;

  /// Best-effort fsync of the directory containing `path`, making a
  /// preceding rename durable.
  virtual Status SyncDirOf(const std::string& path) = 0;

  virtual FileKind GetFileKind(const std::string& path) = 0;

  /// The real-filesystem environment (process-wide singleton).
  static Env* Default();
};

/// Reads the whole of `path` into `out` through `env` (nullptr selects
/// Env::Default()). A file that shrinks while it is read is kDataLoss.
Status ReadFileToString(const std::string& path, std::string* out,
                        Env* env = nullptr);

/// Crash-safe artifact commit: writes to `path + ".tmp"`, and on Commit()
/// flushes, fsyncs, closes, and renames the tmp file onto `path` (then
/// fsyncs the directory). A reader therefore only ever observes either the
/// old complete artifact or the new complete artifact — never a torn one.
///
/// Degenerate paths (devices such as /dev/full, FIFOs) are written in
/// place: Commit() is then sync+close with no rename.
///
/// Any Append/Flush failure poisons the file: Commit() refuses to publish
/// a torn artifact and returns an error instead. The destructor discards
/// an uncommitted tmp file.
class AtomicFile {
 public:
  /// `env == nullptr` selects Env::Default().
  static StatusOr<AtomicFile> Create(const std::string& path,
                                     Env* env = nullptr);

  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&& other) noexcept;
  ~AtomicFile();

  Status Append(const void* data, size_t size);
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }

  /// Pushes buffered bytes to the OS without publishing the artifact.
  Status Flush();

  /// Seals and publishes the artifact (sync, close, rename, dir-sync).
  /// Idempotent success; fails after a prior write failure.
  Status Commit();

  /// Closes and deletes the uncommitted tmp file, if any.
  void Discard();

  /// True until Commit() or Discard().
  bool open() const { return file_ != nullptr; }

  /// Bytes successfully appended so far (header and payload alike). Still
  /// readable after Commit()/Discard(), so writers can report artifact
  /// sizes without stat()-ing the published file.
  int64_t bytes_appended() const { return bytes_appended_; }

  /// The final artifact path.
  const std::string& path() const { return path_; }

 private:
  AtomicFile(Env* env, std::unique_ptr<WritableFile> file, std::string path,
             std::string write_path, bool direct)
      : env_(env),
        file_(std::move(file)),
        path_(std::move(path)),
        write_path_(std::move(write_path)),
        direct_(direct) {}

  Env* env_ = nullptr;
  std::unique_ptr<WritableFile> file_;
  std::string path_;
  std::string write_path_;
  bool direct_ = false;
  bool failed_ = false;
  int64_t bytes_appended_ = 0;
};

/// Deterministic fault schedule for a FaultInjectingEnv. Operation indices
/// count *mutating* operations — WritableFile::Append, WritableFile::Sync,
/// and Env::RenameFile — in the order the env observes them.
struct FaultPlan {
  /// Seeds the per-file short-write decisions (and nothing else), so equal
  /// seeds replay equal failure sequences.
  uint64_t seed = 1;

  /// Simulate a process crash at this mutating-op index (-1 = never): the
  /// op and every later env operation fail with an "injected crash" error,
  /// and unsynced bytes of every open file are discarded.
  int64_t crash_at_op = -1;

  /// Inject a single ENOSPC (kResourceExhausted) at this mutating-op index
  /// (-1 = never).
  int64_t enospc_at_op = -1;

  /// Per-Append probability of an injected short write, decided by a hash
  /// of (seed, file basename, per-file op index) — independent of global
  /// interleaving, so the failure sequence is identical at every --jobs.
  double short_write_prob = 0.0;

  /// On crash, truncate each open file to its last-synced byte (models a
  /// kernel that dropped the page cache). When false the crash only fails
  /// subsequent operations.
  bool lose_unsynced_on_crash = true;
};

/// An Env decorator that deterministically injects IO faults per a
/// FaultPlan. Thread-safe; decisions that must be jobs-invariant are keyed
/// per file rather than on the global op counter.
class FaultInjectingEnv : public Env {
 public:
  FaultInjectingEnv(Env* base, const FaultPlan& plan);

  /// Reads are forwarded untouched: the plan targets writes and commits.
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

  /// True once crash_at_op has fired.
  bool crashed() const;

  /// Injected short writes + ENOSPCs delivered so far.
  int64_t faults_injected() const;

 private:
  friend class FaultInjectingFile;

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

  FaultDecision DecideAppend(const std::string& path, size_t size);
  FaultDecision DecideSync(const std::string& path);
  FaultDecision DecideRename();
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
  bool crashed_ KONDO_GUARDED_BY(mu_) = false;
  bool enospc_fired_ KONDO_GUARDED_BY(mu_) = false;
  int64_t faults_ KONDO_GUARDED_BY(mu_) = 0;
  std::map<std::string, FileState> files_ KONDO_GUARDED_BY(mu_);
};

/// True when `status` carries an env-injected fault (crash, ENOSPC, or
/// short write) rather than a real IO failure.
bool IsInjectedFault(const Status& status);

/// Deterministic hash of (seed, a, b) to [0, 1) — SplitMix64-based. Used to
/// key injected per-candidate test failures on candidate identity so
/// retry/quarantine decisions are identical at every --jobs.
double FaultHash(uint64_t seed, int64_t a, int64_t b);

}  // namespace kondo

#endif  // KONDO_COMMON_ENV_H_
