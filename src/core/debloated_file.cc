#include "core/debloated_file.h"

#include <algorithm>
#include <cstring>

#include "array/kdf_file.h"

namespace kondo {

StatusOr<VirtualDebloatedFile> VirtualDebloatedFile::Create(
    DebloatRuntime runtime, LayoutKind layout_kind,
    std::vector<int64_t> chunk_dims) {
  const Shape& shape = runtime.package().shape();
  KdfHeader header;
  header.dtype = runtime.package().dtype();
  header.layout_kind = layout_kind;
  header.shape = shape;
  if (layout_kind == LayoutKind::kChunked) {
    if (static_cast<int>(chunk_dims.size()) != shape.rank()) {
      return InvalidArgumentError("chunk_dims rank mismatch");
    }
    if (std::any_of(chunk_dims.begin(), chunk_dims.end(),
                    [](int64_t c) { return c < 1; })) {
      return InvalidArgumentError("chunk_dims must be positive");
    }
    header.chunk_dims = chunk_dims;
  }
  std::unique_ptr<Layout> layout = header.MakeFileLayout();

  // Reconstruct the original KDF header bytes so header reads replay
  // exactly (re-execution re-parses the self-describing metadata).
  return VirtualDebloatedFile(std::move(runtime), std::move(layout),
                              EncodeKdfHeader(header));
}

VirtualDebloatedFile::VirtualDebloatedFile(DebloatRuntime runtime,
                                           std::unique_ptr<Layout> layout,
                                           std::string header_bytes)
    : runtime_(std::move(runtime)),
      layout_(std::move(layout)),
      header_bytes_(std::move(header_bytes)),
      payload_offset_(static_cast<int64_t>(header_bytes_.size())) {}

int64_t VirtualDebloatedFile::FileBytes() const {
  return payload_offset_ + layout_->PayloadBytes();
}

StatusOr<int64_t> VirtualDebloatedFile::ReadRaw(int64_t offset, int64_t size,
                                                char* buf) {
  if (offset < 0 || size < 0) {
    return InvalidArgumentError("negative offset or size");
  }
  ++stats_.reads;
  if (offset >= FileBytes()) {
    return 0;
  }
  // Clamped as a length: `offset + size` may overflow.
  const int64_t end = offset + std::min(size, FileBytes() - offset);

  int64_t cursor = offset;
  // Header bytes.
  while (cursor < end && cursor < payload_offset_) {
    buf[cursor - offset] = header_bytes_[static_cast<size_t>(cursor)];
    ++cursor;
  }
  // Payload bytes, element by element.
  const int64_t elem = layout_->element_size();
  char element_buf[16];
  while (cursor < end) {
    const int64_t payload_pos = cursor - payload_offset_;
    const int64_t element_start = (payload_pos / elem) * elem;
    StatusOr<Index> index = layout_->IndexOfByteOffset(element_start);
    const int64_t chunk_end =
        std::min(end, payload_offset_ + element_start + elem);
    if (index.ok()) {
      StatusOr<double> value = runtime_.Read(*index);
      if (!value.ok()) {
        if (value.status().code() != StatusCode::kDataMissing) {
          return value.status();
        }
        ++stats_.missing_range_hits;
        return DataMissingError(
            "pread range touches debloated (Null) element " +
            index->ToString());
      }
      EncodeElement(*value, runtime_.package().dtype(), element_buf);
    } else {
      std::memset(element_buf, 0, sizeof(element_buf));  // Chunk padding.
    }
    for (; cursor < chunk_end; ++cursor) {
      buf[cursor - offset] =
          element_buf[cursor - payload_offset_ - element_start];
    }
  }
  stats_.bytes_served += end - offset;
  return end - offset;
}

Status VirtualDebloatedFile::ReplayRun(const Program& program,
                                       const ParamValue& v) {
  if (!(program.data_shape() == runtime_.package().shape())) {
    return InvalidArgumentError("program shape does not match payload");
  }
  Status first_error = OkStatus();
  char buf[16];
  program.Execute(v, [this, &first_error, &buf](const Index& index) {
    const int64_t offset =
        payload_offset_ + layout_->ByteOffsetOf(index);
    StatusOr<int64_t> n = ReadRaw(offset, layout_->element_size(), buf);
    if (!n.ok() && first_error.ok()) {
      first_error = n.status();
    }
  });
  return first_error;
}

}  // namespace kondo
