#include "common/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

namespace kondo {
namespace {

std::string ErrnoMessage(int error = errno) { return std::strerror(error); }

/// The parent directory of `path` ("." when the path has no slash).
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

/// Buffered stdio-backed file; Sync() is fflush + fsync.
class RealWritableFile : public WritableFile {
 public:
  RealWritableFile(std::FILE* file, std::string path)
      : WritableFile(std::move(path)), file_(file) {}

  ~RealWritableFile() override {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }

  Status Append(const void* data, size_t size) override {
    if (file_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    const size_t n = std::fwrite(data, 1, size, file_);
    if (n != size) {
      return InternalError(StrCat("short write: ", path_, ": wrote ", n,
                                  " of ", size, " bytes"));
    }
    return OkStatus();
  }

  Status Flush() override {
    if (file_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    if (std::fflush(file_) != 0) {
      return InternalError(
          StrCat("flush failed: ", path_, ": ", ErrnoMessage()));
    }
    return OkStatus();
  }

  Status Sync() override {
    KONDO_RETURN_IF_ERROR(Flush());
    if (::fsync(::fileno(file_)) != 0) {
      // Devices and pipes may not support fsync; that is not a torn write.
      if (errno != EINVAL && errno != ENOTTY && errno != ENOTSUP &&
          errno != EROFS) {
        return InternalError(
            StrCat("fsync failed: ", path_, ": ", ErrnoMessage()));
      }
    }
    return OkStatus();
  }

  Status Close() override {
    if (file_ == nullptr) {
      return OkStatus();
    }
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
      return InternalError(
          StrCat("close failed: ", path_, ": ", ErrnoMessage()));
    }
    return OkStatus();
  }

 private:
  std::FILE* file_ = nullptr;
};

/// A read-only descriptor; Read is pread, so concurrent reads are safe.
class RealRandomAccessFile : public RandomAccessFile {
 public:
  RealRandomAccessFile(int fd, std::string path, int64_t size)
      : RandomAccessFile(std::move(path), size), fd_(fd) {}

  ~RealRandomAccessFile() override { ::close(fd_); }

  StatusOr<int64_t> Read(int64_t offset, int64_t n,
                         char* buf) const override {
    if (offset < 0 || n < 0) {
      return InvalidArgumentError(
          StrCat("negative read offset or size: ", path_));
    }
    int64_t total = 0;
    while (total < n) {
      const ssize_t got = ::pread(fd_, buf + total,
                                  static_cast<size_t>(n - total),
                                  static_cast<off_t>(offset + total));
      if (got < 0) {
        return InternalError(
            StrCat("cannot read ", path_, ": ", ErrnoMessage()));
      }
      if (got == 0) {
        break;  // End of file.
      }
      total += got;
    }
    return total;
  }

 private:
  const int fd_;
};

class RealEnv : public Env {
 public:
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      const int error = errno;
      const std::string message =
          StrCat("cannot open ", path, ": ", ErrnoMessage(error));
      return error == ENOENT ? NotFoundError(message)
                             : InternalError(message);
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) {
      const int error = S_ISDIR(st.st_mode) ? EISDIR : errno;
      ::close(fd);
      return InternalError(
          StrCat("cannot open ", path, ": ", ErrnoMessage(error)));
    }
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<RealRandomAccessFile>(fd, path, st.st_size));
  }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return InternalError(
          StrCat("cannot create file: ", path, ": ", ErrnoMessage()));
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<RealWritableFile>(file, path));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return InternalError(StrCat("cannot rename ", from, " -> ", to, ": ",
                                  ErrnoMessage()));
    }
    return OkStatus();
  }

  Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return InternalError(
          StrCat("cannot remove ", path, ": ", ErrnoMessage()));
    }
    return OkStatus();
  }

  Status TruncateFile(const std::string& path, int64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return InternalError(StrCat("cannot truncate ", path, " to ", size,
                                  " bytes: ", ErrnoMessage()));
    }
    return OkStatus();
  }

  Status SyncDirOf(const std::string& path) override {
    // Best effort: some filesystems reject directory fsync; a rename that
    // reached the journal is already as durable as the platform allows.
    const int fd = ::open(DirOf(path).c_str(), O_RDONLY);
    if (fd < 0) {
      return OkStatus();
    }
    ::fsync(fd);
    ::close(fd);
    return OkStatus();
  }

  FileKind GetFileKind(const std::string& path) override {
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0) {
      return FileKind::kMissing;
    }
    return S_ISREG(st.st_mode) ? FileKind::kRegular : FileKind::kOther;
  }
};

}  // namespace

Env* Env::Default() {
  static RealEnv* real = new RealEnv;
  return real;
}

Status RandomAccessFile::ReadFully(int64_t offset, int64_t n,
                                   char* buf) const {
  KONDO_ASSIGN_OR_RETURN(const int64_t got, Read(offset, n, buf));
  if (got != n) {
    return DataLossError(StrCat("short read of ", path_, ": ", got, " of ", n,
                                " bytes at offset ", offset));
  }
  return OkStatus();
}

Status ReadFileToString(const std::string& path, std::string* out, Env* env) {
  KONDO_ASSIGN_OR_RETURN(
      const std::unique_ptr<RandomAccessFile> file,
      (env != nullptr ? env : Env::Default())->NewRandomAccessFile(path));
  out->resize(static_cast<size_t>(file->Size()));
  return file->ReadFully(0, file->Size(), out->data());
}

// ---------------------------------------------------------------------------
// AtomicFile

StatusOr<AtomicFile> AtomicFile::Create(const std::string& path, Env* env) {
  if (env == nullptr) {
    env = Env::Default();
  }
  const FileKind kind = env->GetFileKind(path);
  const bool direct = kind == FileKind::kOther;
  const std::string write_path = direct ? path : path + ".tmp";
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         env->NewWritableFile(write_path));
  return AtomicFile(env, std::move(file), path, write_path, direct);
}

AtomicFile::AtomicFile(AtomicFile&& other) noexcept
    : env_(other.env_),
      file_(std::move(other.file_)),
      path_(std::move(other.path_)),
      write_path_(std::move(other.write_path_)),
      direct_(other.direct_),
      failed_(other.failed_),
      bytes_appended_(other.bytes_appended_) {
  other.file_ = nullptr;
}

AtomicFile& AtomicFile::operator=(AtomicFile&& other) noexcept {
  if (this != &other) {
    Discard();
    env_ = other.env_;
    file_ = std::move(other.file_);
    path_ = std::move(other.path_);
    write_path_ = std::move(other.write_path_);
    direct_ = other.direct_;
    failed_ = other.failed_;
    bytes_appended_ = other.bytes_appended_;
    other.file_ = nullptr;
  }
  return *this;
}

AtomicFile::~AtomicFile() { Discard(); }

Status AtomicFile::Append(const void* data, size_t size) {
  if (file_ == nullptr) {
    return FailedPreconditionError("atomic file already finished: " + path_);
  }
  if (failed_) {
    return FailedPreconditionError("atomic file had a prior write failure: " +
                                   path_);
  }
  const Status status = file_->Append(data, size);
  if (!status.ok()) {
    failed_ = true;
  } else {
    bytes_appended_ += static_cast<int64_t>(size);
  }
  return status;
}

Status AtomicFile::Flush() {
  if (file_ == nullptr) {
    return FailedPreconditionError("atomic file already finished: " + path_);
  }
  if (failed_) {
    return FailedPreconditionError("atomic file had a prior write failure: " +
                                   path_);
  }
  const Status status = file_->Flush();
  if (!status.ok()) {
    failed_ = true;
  }
  return status;
}

Status AtomicFile::Commit() {
  if (file_ == nullptr) {
    return FailedPreconditionError("atomic file already finished: " + path_);
  }
  if (failed_) {
    // Never publish a torn artifact. The tmp file is left behind; the next
    // Create for this path overwrites it.
    const Status closed = file_->Close();
    file_.reset();
    if (!closed.ok()) {
      KONDO_LOG(Info) << "atomic file close after write failure: " << closed;
    }
    return FailedPreconditionError(
        "cannot commit atomic file after write failure: " + path_);
  }
  Status status = file_->Sync();
  const Status closed = file_->Close();
  file_.reset();
  if (status.ok()) {
    status = closed;
  }
  if (!status.ok()) {
    return Status(status.code(), StrCat("atomic commit failed: ", path_, ": ",
                                        status.message()));
  }
  if (!direct_) {
    KONDO_RETURN_IF_ERROR(env_->RenameFile(write_path_, path_));
    KONDO_RETURN_IF_ERROR(env_->SyncDirOf(path_));
  }
  return OkStatus();
}

void AtomicFile::Discard() {
  if (file_ == nullptr) {
    return;
  }
  const Status closed = file_->Close();
  file_.reset();
  if (!closed.ok()) {
    KONDO_LOG(Info) << "atomic file discard close: " << closed;
  }
  if (!direct_) {
    const Status removed = env_->RemoveFile(write_path_);
    if (!removed.ok()) {
      KONDO_LOG(Info) << "atomic file discard remove: " << removed;
    }
  }
}

}  // namespace kondo
