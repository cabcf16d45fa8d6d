#ifndef KONDO_COMMON_ENV_H_
#define KONDO_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/statusor.h"

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
/// this interface, so an Env decorator can interpose short writes, ENOSPC,
/// lost fsyncs, and crash points underneath them.
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
/// filesystem); a decorator passed in its place sees every write, commit
/// and read, which is the seam fault injection uses.
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

}  // namespace kondo

#endif  // KONDO_COMMON_ENV_H_
