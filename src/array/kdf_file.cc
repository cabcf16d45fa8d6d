#include "array/kdf_file.h"

#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "common/strings.h"

namespace kondo {
namespace {

constexpr char kMagic[4] = {'K', 'D', 'F', '1'};

/// The largest header a u8 rank can declare: fixed prefix + two dim vectors.
constexpr size_t kMaxKdfHeaderBytes = 8 + 16 * 255;

/// Parses the header at the start of `bytes`, a prefix of a `file_bytes`-
/// byte file, and checks that the payload it declares fits in the file.
StatusOr<KdfHeader> DecodeKdfHeader(std::string_view bytes,
                                    int64_t file_bytes) {
  ByteCursor cur(bytes, "KDF header");
  const char* magic = nullptr;
  uint8_t rank = 0;
  uint8_t dtype_raw = 0;
  uint8_t layout_raw = 0;
  uint8_t reserved = 0;
  if (!cur.ReadBytes(sizeof(kMagic), &magic).ok() ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return DataLossError("not a KDF file");
  }
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&rank));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&dtype_raw));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&layout_raw));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&reserved));
  if (!IsValidDType(dtype_raw) || layout_raw > 1) {
    return DataLossError("corrupt KDF header: bad dtype or layout");
  }
  KdfHeader header;
  header.dtype = static_cast<DType>(dtype_raw);
  header.layout_kind = static_cast<LayoutKind>(layout_raw);
  std::vector<int64_t> dims(rank);
  for (int64_t& dim : dims) {
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&dim));
  }
  KONDO_ASSIGN_OR_RETURN(header.shape, DecodeShape(dims, "KDF dims"));

  // Extents as stored: the chunked layout pads every edge chunk.
  std::vector<int64_t> stored = dims;
  if (header.layout_kind == LayoutKind::kChunked) {
    header.chunk_dims.resize(rank);
    for (size_t d = 0; d < dims.size(); ++d) {
      int64_t& chunk = header.chunk_dims[d];
      KONDO_RETURN_IF_ERROR(cur.ReadI64(&chunk));
      if (chunk <= 0) {
        return DataLossError(StrCat("KDF chunk dims: non-positive dim ",
                                    chunk));
      }
      const int64_t grid = (dims[d] - 1) / chunk + 1;
      if (grid > std::numeric_limits<int64_t>::max() / chunk) {
        return DataLossError("KDF chunk dims: padded extent overflows int64");
      }
      stored[d] = grid * chunk;
    }
  }
  KONDO_ASSIGN_OR_RETURN(const Shape stored_shape,
                         DecodeShape(stored, "KDF payload"));
  const int64_t payload_room = file_bytes - header.HeaderBytes();
  if (stored_shape.NumElements() > payload_room / DTypeSize(header.dtype)) {
    return DataLossError(StrCat("KDF payload: ", stored_shape.NumElements(),
                                " elements exceed the ", file_bytes,
                                "-byte file"));
  }
  return header;
}

}  // namespace

int64_t KdfHeader::HeaderBytes() const {
  int64_t bytes = 8 + 8 * shape.rank();
  if (layout_kind == LayoutKind::kChunked) {
    bytes += 8 * shape.rank();
  }
  return bytes;
}

std::unique_ptr<Layout> KdfHeader::MakeFileLayout() const {
  return MakeLayout(layout_kind, shape, dtype, chunk_dims);
}

std::string EncodeKdfHeader(const KdfHeader& header) {
  std::string bytes(kMagic, sizeof(kMagic));
  AppendU8(static_cast<uint8_t>(header.shape.rank()), &bytes);
  AppendU8(static_cast<uint8_t>(header.dtype), &bytes);
  AppendU8(static_cast<uint8_t>(header.layout_kind), &bytes);
  AppendU8(0, &bytes);  // reserved
  for (int64_t dim : header.shape.dims()) {
    AppendI64(dim, &bytes);
  }
  if (header.layout_kind == LayoutKind::kChunked) {
    for (int64_t chunk : header.chunk_dims) {
      AppendI64(chunk, &bytes);
    }
  }
  return bytes;
}

void EncodeElement(double value, DType dtype, char* buf) {
  switch (dtype) {
    case DType::kInt32: {
      int32_t v = static_cast<int32_t>(value);
      std::memcpy(buf, &v, 4);
      return;
    }
    case DType::kInt64: {
      int64_t v = static_cast<int64_t>(value);
      std::memcpy(buf, &v, 8);
      return;
    }
    case DType::kFloat32: {
      float v = static_cast<float>(value);
      std::memcpy(buf, &v, 4);
      return;
    }
    case DType::kFloat64: {
      std::memcpy(buf, &value, 8);
      return;
    }
    case DType::kFloat128: {
      // A float64 value padded to the paper's 16-byte element width.
      std::memcpy(buf, &value, 8);
      std::memset(buf + 8, 0, 8);
      return;
    }
  }
}

double DecodeElement(const char* buf, DType dtype) {
  switch (dtype) {
    case DType::kInt32: {
      int32_t v;
      std::memcpy(&v, buf, 4);
      return static_cast<double>(v);
    }
    case DType::kInt64: {
      int64_t v;
      std::memcpy(&v, buf, 8);
      return static_cast<double>(v);
    }
    case DType::kFloat32: {
      float v;
      std::memcpy(&v, buf, 4);
      return static_cast<double>(v);
    }
    case DType::kFloat64:
    case DType::kFloat128: {
      double v;
      std::memcpy(&v, buf, 8);
      return v;
    }
  }
  return 0.0;
}

Status WriteKdfFile(const std::string& path, const DataArray& array,
                    LayoutKind layout_kind, std::vector<int64_t> chunk_dims,
                    Env* env) {
  KdfHeader header;
  header.dtype = array.dtype();
  header.layout_kind = layout_kind;
  header.shape = array.shape();
  header.chunk_dims =
      layout_kind == LayoutKind::kChunked ? chunk_dims : std::vector<int64_t>{};
  if (layout_kind == LayoutKind::kChunked &&
      static_cast<int>(chunk_dims.size()) != array.shape().rank()) {
    return InvalidArgumentError("chunk_dims rank mismatch");
  }

  std::unique_ptr<Layout> layout = header.MakeFileLayout();
  const int64_t payload_bytes = layout->PayloadBytes();
  std::string payload(static_cast<size_t>(payload_bytes), '\0');
  const int64_t elem = layout->element_size();
  array.shape().ForEachIndex([&](const Index& index) {
    const int64_t offset = layout->ByteOffsetOf(index);
    KONDO_CHECK_LE(offset + elem, payload_bytes);
    EncodeElement(array.At(index), header.dtype, payload.data() + offset);
  });

  KONDO_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path, env));
  KONDO_RETURN_IF_ERROR(file.Append(EncodeKdfHeader(header)));
  KONDO_RETURN_IF_ERROR(file.Append(payload));
  return file.Commit();
}

KdfReader::KdfReader(std::unique_ptr<RandomAccessFile> file, KdfHeader header)
    : file_(std::move(file)),
      header_(std::move(header)),
      layout_(header_.MakeFileLayout()) {}

StatusOr<KdfReader> KdfReader::Open(const std::string& path, Env* env) {
  KONDO_ASSIGN_OR_RETURN(
      std::unique_ptr<RandomAccessFile> file,
      (env != nullptr ? env : Env::Default())->NewRandomAccessFile(path));
  char buf[kMaxKdfHeaderBytes];
  KONDO_ASSIGN_OR_RETURN(const int64_t got, file->Read(0, sizeof(buf), buf));
  StatusOr<KdfHeader> header = DecodeKdfHeader(
      std::string_view(buf, static_cast<size_t>(got)), file->Size());
  if (!header.ok()) {
    return Status(header.status().code(),
                  StrCat(header.status().message(), ": ", path));
  }
  return KdfReader(std::move(file), *std::move(header));
}

int64_t KdfReader::FileBytes() const {
  return payload_offset() + layout_->PayloadBytes();
}

StatusOr<double> KdfReader::ReadElement(const Index& index) const {
  if (!shape().Contains(index)) {
    return OutOfRangeError("index out of bounds");
  }
  char buf[16];
  KONDO_RETURN_IF_ERROR(
      file_->ReadFully(payload_offset() + layout_->ByteOffsetOf(index),
                       layout_->element_size(), buf));
  return DecodeElement(buf, header_.dtype);
}

StatusOr<int64_t> KdfReader::ReadRaw(int64_t offset, int64_t size,
                                     char* buf) const {
  return file_->Read(offset, size, buf);
}

StatusOr<DataArray> KdfReader::ReadAll() const {
  DataArray array(shape(), header_.dtype);
  char buf[16];
  const int64_t elem = layout_->element_size();
  const int64_t n = shape().NumElements();
  for (int64_t linear = 0; linear < n; ++linear) {
    const Index index = shape().Delinearize(linear);
    const int64_t offset = payload_offset() + layout_->ByteOffsetOf(index);
    KONDO_RETURN_IF_ERROR(file_->ReadFully(offset, elem, buf));
    array.SetLinear(linear, DecodeElement(buf, header_.dtype));
  }
  return array;
}

}  // namespace kondo
