#include "support/fault_env.h"

#include <string_view>

#include "common/logging.h"
#include "common/strings.h"

namespace kondo {
namespace {

/// The final component of `path`. Fault decisions key on it so that they
/// survive a change of temporary directory (the directory differs between
/// test runs; the artifact names do not).
std::string_view Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return std::string_view(path).substr(
      slash == std::string::npos ? 0 : slash + 1);
}

/// FNV-1a over the basename.
uint64_t BasenameHash(const std::string& path) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : Basename(path)) {
    h ^= static_cast<unsigned char>(c);
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

}  // namespace

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

  Status Append(const void* data, size_t size) override {
    if (base_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    const FaultInjectingEnv::FaultDecision d = env_->Decide(&path_, size);
    if (d.action == FaultInjectingEnv::FaultAction::kShortWrite) {
      const Status written = base_->Append(data, d.short_bytes);
      if (written.ok()) {
        env_->RecordAppended(path_, static_cast<int64_t>(d.short_bytes));
      }
      return InternalError(StrCat("injected short write (op ", d.op, "): ",
                                  path_, ": wrote ", d.short_bytes, " of ",
                                  size, " bytes"));
    }
    KONDO_RETURN_IF_ERROR(env_->DecisionError(d, path_));
    KONDO_RETURN_IF_ERROR(base_->Append(data, size));
    env_->RecordAppended(path_, static_cast<int64_t>(size));
    return OkStatus();
  }

  Status Flush() override {
    if (base_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    KONDO_RETURN_IF_ERROR(env_->CheckNotCrashed(path_));
    return base_->Flush();
  }

  Status Sync() override {
    if (base_ == nullptr) {
      return FailedPreconditionError("file already closed: " + path_);
    }
    KONDO_RETURN_IF_ERROR(
        env_->DecisionError(env_->Decide(nullptr, 0), path_));
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

/// A read-only file that delivers the env's planned read faults.
class FaultInjectingReadFile : public RandomAccessFile {
 public:
  FaultInjectingReadFile(FaultInjectingEnv* env,
                         std::unique_ptr<RandomAccessFile> base)
      : RandomAccessFile(base->path(), base->Size()),
        env_(env),
        base_(std::move(base)) {}

  StatusOr<int64_t> Read(int64_t offset, int64_t n,
                         char* buf) const override {
    const FaultPlan& plan = env_->plan_;
    const int64_t read = env_->NextRead();
    if (read == plan.eio_at_read) {
      return InternalError(
          StrCat("injected EIO: cannot read ", path_, ": Input/output error"));
    }
    KONDO_ASSIGN_OR_RETURN(const int64_t got, base_->Read(offset, n, buf));
    if (read == plan.short_read_at) {
      return got / 2;
    }
    if (offset <= plan.flip_byte && plan.flip_byte < offset + got &&
        Basename(path_) == plan.flip_file) {
      buf[plan.flip_byte - offset] ^= 0x01;
    }
    return got;
  }

 private:
  FaultInjectingEnv* const env_;
  const std::unique_ptr<RandomAccessFile> base_;
};

FaultInjectingEnv::FaultInjectingEnv(Env* base, const FaultPlan& plan)
    : base_(base == nullptr ? Env::Default() : base), plan_(plan) {}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  KONDO_RETURN_IF_ERROR(CheckNotCrashed(path));
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
  KONDO_RETURN_IF_ERROR(
      DecisionError(Decide(nullptr, 0), StrCat(from, " -> ", to)));
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  KONDO_RETURN_IF_ERROR(CheckNotCrashed(path));
  return base_->RemoveFile(path);
}

Status FaultInjectingEnv::TruncateFile(const std::string& path,
                                       int64_t size) {
  KONDO_RETURN_IF_ERROR(CheckNotCrashed(path));
  return base_->TruncateFile(path, size);
}

Status FaultInjectingEnv::SyncDirOf(const std::string& path) {
  KONDO_RETURN_IF_ERROR(CheckNotCrashed(path));
  return base_->SyncDirOf(path);
}

StatusOr<std::unique_ptr<RandomAccessFile>>
FaultInjectingEnv::NewRandomAccessFile(const std::string& path) {
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                         base_->NewRandomAccessFile(path));
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<FaultInjectingReadFile>(this, std::move(file)));
}

FileKind FaultInjectingEnv::GetFileKind(const std::string& path) {
  return base_->GetFileKind(path);
}

int64_t FaultInjectingEnv::ops() const {
  MutexLock lock(mu_);
  return ops_;
}

int64_t FaultInjectingEnv::reads() const {
  MutexLock lock(mu_);
  return reads_;
}

int64_t FaultInjectingEnv::NextRead() {
  MutexLock lock(mu_);
  return reads_++;
}

bool FaultInjectingEnv::crashed() const {
  MutexLock lock(mu_);
  return crashed_;
}

int64_t FaultInjectingEnv::faults_injected() const {
  MutexLock lock(mu_);
  return faults_;
}

FaultInjectingEnv::FaultDecision FaultInjectingEnv::Decide(
    const std::string* append_path, size_t size) {
  MutexLock lock(mu_);
  FaultDecision d;
  if (crashed_) {
    d.action = FaultAction::kCrash;
    return d;
  }
  d.op = ops_++;
  const int64_t file_op =
      append_path != nullptr ? files_[*append_path].file_ops++ : 0;
  if (plan_.crash_at_op >= 0 && d.op >= plan_.crash_at_op) {
    TriggerCrashLocked();
    d.action = FaultAction::kCrash;
  } else if (plan_.enospc_at_op >= 0 && !enospc_fired_ &&
             d.op >= plan_.enospc_at_op) {
    enospc_fired_ = true;
    ++faults_;
    d.action = FaultAction::kEnospc;
  } else if (append_path != nullptr && plan_.short_write_prob > 0.0 &&
             size > 0) {
    const uint64_t key = plan_.seed ^ BasenameHash(*append_path);
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

Status FaultInjectingEnv::DecisionError(const FaultDecision& d,
                                        const std::string& what) const {
  switch (d.action) {
    case FaultAction::kCrash:
      return CrashedError(what);
    case FaultAction::kEnospc:
      return ResourceExhaustedError(
          StrCat("injected ENOSPC (op ", d.op, "): ", what));
    default:
      return OkStatus();
  }
}

Status FaultInjectingEnv::CheckNotCrashed(const std::string& what) const {
  MutexLock lock(mu_);
  return crashed_ ? CrashedError(what) : OkStatus();
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
