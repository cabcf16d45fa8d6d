#ifndef KONDO_CORE_DEBLOATED_FILE_H_
#define KONDO_CORE_DEBLOATED_FILE_H_

#include <cstdint>
#include <memory>

#include "array/layout.h"
#include "common/statusor.h"
#include "core/runtime.h"
#include "workloads/program.h"

namespace kondo {

/// Statistics of byte-level debloated serving.
struct DebloatedFileStats {
  int64_t reads = 0;
  int64_t bytes_served = 0;
  int64_t missing_range_hits = 0;  // Reads touching a Null element.
};

/// A byte-addressable view of a debloated package that presents the
/// *original* file's offset space — the paper's re-execution mapping
/// ("During re-execution of the debloated container, Sciunit maps a system
/// call's arguments to the appropriate offset of the file", §V
/// Implementation). The application replays its original pread(offset,
/// size) calls unmodified; the view reconstructs the bytes from elements it
/// reads through a DebloatRuntime, using the file metadata, or raises
/// data-missing when a requested range touches a Null element.
///
/// Bytes inside the (virtual) header are served from the reconstructed
/// header; chunk-padding bytes read as zero.
class VirtualDebloatedFile {
 public:
  /// `runtime` serves the debloated elements; `layout_kind`/`chunk_dims`
  /// describe the original file's physical layout (so original offsets
  /// resolve). kInvalidArgument for chunk dims of the wrong rank or < 1.
  static StatusOr<VirtualDebloatedFile> Create(
      DebloatRuntime runtime, LayoutKind layout_kind = LayoutKind::kRowMajor,
      std::vector<int64_t> chunk_dims = {});

  /// Size of the virtual original file (header + full dense payload).
  int64_t FileBytes() const;

  /// Byte offset at which the payload starts (the KDF header size).
  int64_t payload_offset() const { return payload_offset_; }

  /// Serves `size` bytes at absolute `offset` of the original file into
  /// `buf`. Short reads at EOF are allowed (returns bytes served). Fails
  /// with kDataMissing when the range covers any Null element's bytes, and
  /// with the runtime's error (e.g. kDataLoss for a damaged chunk) otherwise.
  StatusOr<int64_t> ReadRaw(int64_t offset, int64_t size, char* buf);

  const DebloatedFileStats& stats() const { return stats_; }

  /// Replays one program run against the virtual file: every element access
  /// becomes the same pread(offset, element_size) the original execution
  /// issued against the real file. Returns the first data-missing error
  /// (the run executes to completion).
  Status ReplayRun(const Program& program, const ParamValue& v);

 private:
  VirtualDebloatedFile(DebloatRuntime runtime, std::unique_ptr<Layout> layout,
                       std::string header_bytes);

  DebloatRuntime runtime_;
  std::unique_ptr<Layout> layout_;
  std::string header_bytes_;
  int64_t payload_offset_ = 0;
  DebloatedFileStats stats_;
};

}  // namespace kondo

#endif  // KONDO_CORE_DEBLOATED_FILE_H_
