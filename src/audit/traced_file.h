#ifndef KONDO_AUDIT_TRACED_FILE_H_
#define KONDO_AUDIT_TRACED_FILE_H_

#include <cstdint>
#include <string>

#include "array/kdf_file.h"
#include "audit/event_log.h"
#include "common/statusor.h"

namespace kondo {

/// Function-interposition shim over a KDF data file: every read issued
/// through a TracedFile is forwarded to the underlying KDF reader *and*
/// recorded as an `<id, c, l, sz>` event in the attached EventLog — the role
/// ptrace/Sciunit interposition plays in the paper's prototype.
///
/// Passing a null EventLog disables auditing entirely (the shim becomes a
/// thin pass-through), which is how the §V-D6 audit-overhead bench measures
/// raw execution time.
class TracedFile {
 public:
  /// Opens `path`, assigns it `file_id`, and records an open event for
  /// `pid`. `log` may be null for un-audited execution.
  static StatusOr<TracedFile> Open(const std::string& path, int64_t pid,
                                   int64_t file_id, EventLog* log);

  TracedFile(TracedFile&&) noexcept = default;
  TracedFile& operator=(TracedFile&&) noexcept = default;

  /// Records a close event. Idempotent; also invoked by the destructor.
  void Close();
  ~TracedFile();

  const KdfReader& reader() const { return reader_; }
  const Shape& shape() const { return reader_.shape(); }
  int64_t pid() const { return pid_; }
  int64_t file_id() const { return file_id_; }

  /// Reads the element at `index`, recording a pread event covering its
  /// byte range.
  StatusOr<double> ReadElement(const Index& index);

  /// Reads `size` raw bytes at absolute `offset`, recording a pread event.
  StatusOr<int64_t> ReadRaw(int64_t offset, int64_t size, char* buf);

  /// Records an mmap-style access of [offset, offset+size) without copying
  /// data (models applications that fault pages in via mappings).
  void TouchMmap(int64_t offset, int64_t size);

  /// Changes the process identity used for subsequent events (models a
  /// fork()ed child inheriting the descriptor).
  void SetPid(int64_t pid) { pid_ = pid; }

  /// Number of data-access calls issued through this shim.
  int64_t access_count() const { return access_count_; }

 private:
  TracedFile(KdfReader reader, int64_t pid, int64_t file_id, EventLog* log)
      : reader_(std::move(reader)), pid_(pid), file_id_(file_id), log_(log) {}

  void Log(EventType type, int64_t offset, int64_t size);

  KdfReader reader_;
  int64_t pid_;
  int64_t file_id_;
  EventLog* log_;  // Not owned; may be null (un-audited mode).
  bool closed_ = false;
  int64_t access_count_ = 0;
};

}  // namespace kondo

#endif  // KONDO_AUDIT_TRACED_FILE_H_
