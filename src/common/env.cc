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

/// FNV-1a over the basename so fault decisions survive a change of
/// temporary directory (the directory differs between test runs; the
/// artifact names do not).
uint64_t BasenameHash(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const size_t begin = slash == std::string::npos ? 0 : slash + 1;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = begin; i < path.size(); ++i) {
    h ^= static_cast<unsigned char>(path[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t SplitMix64Step(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
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

// ---------------------------------------------------------------------------
// FaultInjectingEnv

/// Wrapper that consults the env's fault plan before every operation and
/// reports byte progress back for crash truncation.
class FaultInjectingFile : public WritableFile {
 public:
  FaultInjectingFile(FaultInjectingEnv* env,
                     std::unique_ptr<WritableFile> base)
      : WritableFile(base->path()), env_(env), base_(std::move(base)) {}

  ~FaultInjectingFile() override {
    if (base_ != nullptr) {
      const Status closed = Close();
      if (!closed.ok()) {
        KONDO_LOG(Info) << "fault-injecting file close: " << closed;
      }
    }
  }

  WritableFile* base() const { return base_.get(); }

  Status Append(const void* data, size_t size) override {
    if (base_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    const FaultInjectingEnv::FaultDecision d =
        env_->DecideAppend(path_, size);
    switch (d.action) {
      case FaultInjectingEnv::FaultAction::kCrash:
        return env_->CrashedError(path_);
      case FaultInjectingEnv::FaultAction::kEnospc:
        return ResourceExhaustedError(
            StrCat("injected ENOSPC (op ", d.op, "): ", path_));
      case FaultInjectingEnv::FaultAction::kShortWrite: {
        const Status written = base_->Append(data, d.short_bytes);
        if (written.ok()) {
          env_->RecordAppended(path_, static_cast<int64_t>(d.short_bytes));
        }
        return InternalError(StrCat("injected short write (op ", d.op,
                                    "): ", path_, ": wrote ", d.short_bytes,
                                    " of ", size, " bytes"));
      }
      case FaultInjectingEnv::FaultAction::kProceed:
        break;
    }
    KONDO_RETURN_IF_ERROR(base_->Append(data, size));
    env_->RecordAppended(path_, static_cast<int64_t>(size));
    return OkStatus();
  }

  Status Flush() override {
    if (base_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    if (env_->crashed()) {
      return env_->CrashedError(path_);
    }
    return base_->Flush();
  }

  Status Sync() override {
    if (base_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    const FaultInjectingEnv::FaultDecision d = env_->DecideSync(path_);
    switch (d.action) {
      case FaultInjectingEnv::FaultAction::kCrash:
        return env_->CrashedError(path_);
      case FaultInjectingEnv::FaultAction::kEnospc:
        return ResourceExhaustedError(
            StrCat("injected ENOSPC (op ", d.op, "): ", path_));
      default:
        break;
    }
    KONDO_RETURN_IF_ERROR(base_->Sync());
    env_->RecordSynced(path_);
    return OkStatus();
  }

  Status Close() override {
    if (base_ == nullptr) {
      return OkStatus();
    }
    env_->Unregister(path_);
    const Status closed = base_->Close();
    base_.reset();
    return closed;
  }

 private:
  FaultInjectingEnv* const env_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectingEnv::FaultInjectingEnv(Env* base, const FaultPlan& plan)
    : base_(base == nullptr ? Env::Default() : base), plan_(plan) {}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  {
    MutexLock lock(mu_);
    if (crashed_) {
      return CrashedError(path);
    }
  }
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                         base_->NewWritableFile(path));
  WritableFile* raw = base.get();
  auto file = std::make_unique<FaultInjectingFile>(this, std::move(base));
  MutexLock lock(mu_);
  if (crashed_) {
    return CrashedError(path);  // The wrapper's destructor closes the base.
  }
  FileState state;
  state.file = raw;
  files_[path] = state;
  return std::unique_ptr<WritableFile>(std::move(file));
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  const FaultDecision d = DecideRename();
  switch (d.action) {
    case FaultAction::kCrash:
      return CrashedError(StrCat(from, " -> ", to));
    case FaultAction::kEnospc:
      return ResourceExhaustedError(
          StrCat("injected ENOSPC (op ", d.op, "): ", from, " -> ", to));
    default:
      break;
  }
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  {
    MutexLock lock(mu_);
    if (crashed_) {
      return CrashedError(path);
    }
  }
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::TruncateFile(const std::string& path,
                                       int64_t size) {
  {
    MutexLock lock(mu_);
    if (crashed_) {
      return CrashedError(path);
    }
  }
  return base_->TruncateFile(path, size);
}

Status FaultInjectingEnv::SyncDirOf(const std::string& path) {
  {
    MutexLock lock(mu_);
    if (crashed_) {
      return CrashedError(path);
    }
  }
  return base_->SyncDirOf(path);
}

StatusOr<std::unique_ptr<RandomAccessFile>>
FaultInjectingEnv::NewRandomAccessFile(const std::string& path) {
  return base_->NewRandomAccessFile(path);
}

FileKind FaultInjectingEnv::GetFileKind(const std::string& path) {
  return base_->GetFileKind(path);
}

int64_t FaultInjectingEnv::ops() const {
  MutexLock lock(mu_);
  return ops_;
}

bool FaultInjectingEnv::crashed() const {
  MutexLock lock(mu_);
  return crashed_;
}

int64_t FaultInjectingEnv::faults_injected() const {
  MutexLock lock(mu_);
  return faults_;
}

FaultInjectingEnv::FaultDecision FaultInjectingEnv::DecideAppend(
    const std::string& path, size_t size) {
  MutexLock lock(mu_);
  FaultDecision d;
  if (crashed_) {
    d.action = FaultAction::kCrash;
    return d;
  }
  d.op = ops_++;
  const int64_t file_op = files_[path].file_ops++;
  if (plan_.crash_at_op >= 0 && d.op >= plan_.crash_at_op) {
    TriggerCrashLocked();
    d.action = FaultAction::kCrash;
    return d;
  }
  if (plan_.enospc_at_op >= 0 && !enospc_fired_ &&
      d.op >= plan_.enospc_at_op) {
    enospc_fired_ = true;
    ++faults_;
    d.action = FaultAction::kEnospc;
    return d;
  }
  if (plan_.short_write_prob > 0.0 && size > 0) {
    const uint64_t key = plan_.seed ^ BasenameHash(path);
    if (FaultHash(key, file_op, 0) < plan_.short_write_prob) {
      ++faults_;
      d.action = FaultAction::kShortWrite;
      d.short_bytes = static_cast<size_t>(
          FaultHash(key, file_op, 1) * static_cast<double>(size));
      if (d.short_bytes >= size) {
        d.short_bytes = size - 1;
      }
    }
  }
  return d;
}

FaultInjectingEnv::FaultDecision FaultInjectingEnv::DecideSync(
    const std::string& path) {
  (void)path;
  MutexLock lock(mu_);
  FaultDecision d;
  if (crashed_) {
    d.action = FaultAction::kCrash;
    return d;
  }
  d.op = ops_++;
  if (plan_.crash_at_op >= 0 && d.op >= plan_.crash_at_op) {
    TriggerCrashLocked();
    d.action = FaultAction::kCrash;
    return d;
  }
  if (plan_.enospc_at_op >= 0 && !enospc_fired_ &&
      d.op >= plan_.enospc_at_op) {
    enospc_fired_ = true;
    ++faults_;
    d.action = FaultAction::kEnospc;
  }
  return d;
}

FaultInjectingEnv::FaultDecision FaultInjectingEnv::DecideRename() {
  MutexLock lock(mu_);
  FaultDecision d;
  if (crashed_) {
    d.action = FaultAction::kCrash;
    return d;
  }
  d.op = ops_++;
  if (plan_.crash_at_op >= 0 && d.op >= plan_.crash_at_op) {
    TriggerCrashLocked();
    d.action = FaultAction::kCrash;
    return d;
  }
  if (plan_.enospc_at_op >= 0 && !enospc_fired_ &&
      d.op >= plan_.enospc_at_op) {
    enospc_fired_ = true;
    ++faults_;
    d.action = FaultAction::kEnospc;
  }
  return d;
}

Status FaultInjectingEnv::CrashedError(const std::string& what) const {
  return InternalError(
      StrCat("injected crash (op ", plan_.crash_at_op, "): ", what));
}

void FaultInjectingEnv::TriggerCrashLocked() {
  crashed_ = true;
  for (auto& entry : files_) {
    FileState& state = entry.second;
    if (state.file == nullptr) {
      continue;
    }
    // Close flushes stdio buffers to disk; truncating back to the synced
    // length then models the kernel dropping everything past the last
    // fsync.
    const Status closed = state.file->Close();
    if (!closed.ok()) {
      KONDO_LOG(Info) << "injected crash close: " << closed;
    }
    state.file = nullptr;
    if (plan_.lose_unsynced_on_crash) {
      const Status truncated = base_->TruncateFile(entry.first, state.synced);
      if (!truncated.ok()) {
        KONDO_LOG(Info) << "injected crash truncate: " << truncated;
      } else if (state.appended > state.synced) {
        KONDO_LOG(Info) << "injected crash dropped "
                        << (state.appended - state.synced)
                        << " unsynced bytes of " << entry.first;
      }
    }
  }
}

void FaultInjectingEnv::RecordAppended(const std::string& path,
                                       int64_t bytes) {
  MutexLock lock(mu_);
  files_[path].appended += bytes;
}

void FaultInjectingEnv::RecordSynced(const std::string& path) {
  MutexLock lock(mu_);
  FileState& state = files_[path];
  state.synced = state.appended;
}

void FaultInjectingEnv::Unregister(const std::string& path) {
  MutexLock lock(mu_);
  const auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.file = nullptr;
  }
}

bool IsInjectedFault(const Status& status) {
  return !status.ok() &&
         status.message().find("injected") != std::string::npos;
}

double FaultHash(uint64_t seed, int64_t a, int64_t b) {
  uint64_t x = seed;
  uint64_t h = SplitMix64Step(&x);
  x = h ^ static_cast<uint64_t>(a);
  h = SplitMix64Step(&x);
  x = h ^ static_cast<uint64_t>(b);
  h = SplitMix64Step(&x);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace kondo
