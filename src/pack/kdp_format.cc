#include "pack/kdp_format.h"

#include <algorithm>
#include <utility>

#include "common/byte_codec.h"
#include "common/status.h"
#include "provenance/crc32.h"

namespace kondo {
namespace {

/// True when the cursor's next four bytes are `magic` (consumed either way).
bool ReadMagic(ByteCursor& cur, const char (&magic)[4]) {
  const char* p = nullptr;
  return cur.ReadBytes(4, &p).ok() &&
         std::string_view(p, 4) == std::string_view(magic, 4);
}

}  // namespace

bool IsValidKdpCodec(uint8_t value) {
  return value <= static_cast<uint8_t>(KdpCodec::kBytePlane);
}

const char* KdpCodecName(KdpCodec codec) {
  switch (codec) {
    case KdpCodec::kHole:
      return "hole";
    case KdpCodec::kRaw:
      return "raw";
    case KdpCodec::kDeltaVarint:
      return "delta-varint";
    case KdpCodec::kBytePlane:
      return "byte-plane";
  }
  return "unknown";
}

KdpChunkGrid::KdpChunkGrid(Shape shape, std::vector<int64_t> chunk_dims)
    : shape_(std::move(shape)), chunk_dims_(std::move(chunk_dims)) {
  grid_dims_.resize(chunk_dims_.size());
  for (size_t d = 0; d < chunk_dims_.size(); ++d) {
    const int64_t dim = shape_.dim(static_cast<int>(d));
    grid_dims_[d] = (dim - 1) / chunk_dims_[d] + 1;  // Cannot overflow.
    num_chunks_ *= grid_dims_[d];
  }
}

int64_t KdpChunkGrid::ChunkOfIndex(const Index& index) const {
  int64_t chunk = 0;
  for (int d = 0; d < shape_.rank(); ++d) {
    chunk = chunk * grid_dims_[static_cast<size_t>(d)] +
            index[d] / chunk_dims_[static_cast<size_t>(d)];
  }
  return chunk;
}

int64_t KdpChunkGrid::ChunkOfLinear(int64_t linear) const {
  return ChunkOfIndex(shape_.Delinearize(linear));
}

Index KdpChunkGrid::ChunkOrigin(int64_t chunk) const {
  Index origin(shape_.rank());
  for (int d = shape_.rank() - 1; d >= 0; --d) {
    const int64_t grid = grid_dims_[static_cast<size_t>(d)];
    origin[d] = (chunk % grid) * chunk_dims_[static_cast<size_t>(d)];
    chunk /= grid;
  }
  return origin;
}

std::vector<int64_t> KdpChunkGrid::ChunkExtents(int64_t chunk) const {
  const Index origin = ChunkOrigin(chunk);
  std::vector<int64_t> extents(static_cast<size_t>(shape_.rank()));
  for (int d = 0; d < shape_.rank(); ++d) {
    extents[static_cast<size_t>(d)] =
        std::min(chunk_dims_[static_cast<size_t>(d)],
                 shape_.dim(d) - origin[d]);
  }
  return extents;
}

int64_t KdpChunkGrid::ChunkElements(int64_t chunk) const {
  int64_t elements = 1;
  for (int64_t extent : ChunkExtents(chunk)) {
    elements *= extent;
  }
  return elements;
}

int64_t KdpChunkGrid::LocalPosition(const Index& index) const {
  const int64_t chunk = ChunkOfIndex(index);
  const Index origin = ChunkOrigin(chunk);
  const std::vector<int64_t> extents = ChunkExtents(chunk);
  int64_t pos = 0;
  for (int d = 0; d < shape_.rank(); ++d) {
    pos = pos * extents[static_cast<size_t>(d)] + (index[d] - origin[d]);
  }
  return pos;
}

std::string EncodeKdpHeader(const KdpManifest& manifest) {
  std::string bytes(kKdpMagic, 4);
  AppendU8(kKdpVersion, &bytes);
  AppendU8(static_cast<uint8_t>(manifest.dtype), &bytes);
  AppendU8(static_cast<uint8_t>(manifest.shape.rank()), &bytes);
  AppendU8(0, &bytes);  // reserved
  for (int64_t dim : manifest.shape.dims()) {
    AppendI64(dim, &bytes);
  }
  for (int64_t chunk : manifest.chunk_dims) {
    AppendI64(chunk, &bytes);
  }
  return bytes;
}

std::string EncodeKdpManifest(const KdpManifest& manifest) {
  std::string bytes;
  bytes.reserve(static_cast<size_t>(manifest.ManifestBytes()));
  for (const KdpChunkInfo& info : manifest.chunks) {
    AppendU8(static_cast<uint8_t>(info.codec), &bytes);
    AppendI64(info.offset, &bytes);
    AppendI64(info.encoded_bytes, &bytes);
    AppendI64(info.decoded_bytes, &bytes);
    AppendU32(info.crc32, &bytes);
  }
  return bytes;
}

std::string EncodeKdpTrailer(int64_t manifest_offset, int64_t num_chunks,
                             uint32_t file_crc) {
  std::string bytes;
  AppendI64(manifest_offset, &bytes);
  AppendI64(num_chunks, &bytes);
  AppendU32(file_crc, &bytes);
  bytes.append(kKdpTrailerMagic, 4);
  return bytes;
}

StatusOr<KdpTrailer> DecodeKdpTrailer(std::string_view tail,
                                      int64_t file_bytes) {
  ByteCursor cur(tail, "KDP trailer");
  KdpTrailer trailer;
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&trailer.manifest_offset));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&trailer.num_chunks));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&trailer.file_crc));
  if (!ReadMagic(cur, kKdpTrailerMagic)) {
    return DataLossError("KDP trailer: bad magic (truncated or not a KDP "
                         "file)");
  }
  KONDO_RETURN_IF_ERROR(cur.Done());
  // Bound the chunk count before multiplying by it.
  const int64_t manifest_room = file_bytes - kKdpTrailerBytes;
  if (trailer.num_chunks < 0 || trailer.manifest_offset < 0 ||
      trailer.num_chunks > manifest_room / kKdpManifestEntryBytes ||
      trailer.manifest_offset !=
          manifest_room - trailer.num_chunks * kKdpManifestEntryBytes) {
    return DataLossError("KDP trailer: manifest location inconsistent with "
                         "file size");
  }
  return trailer;
}

StatusOr<KdpManifest> DecodeKdpManifest(std::string_view header,
                                        std::string_view manifest,
                                        const KdpTrailer& trailer) {
  ByteCursor cur(header, "KDP header");
  if (!ReadMagic(cur, kKdpMagic)) {
    return DataLossError("KDP header: bad magic");
  }
  uint8_t version = 0;
  uint8_t dtype_raw = 0;
  uint8_t rank = 0;
  uint8_t reserved = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&version));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&dtype_raw));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&rank));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&reserved));
  if (version != kKdpVersion) {
    return DataLossError("KDP header: unsupported version " +
                         std::to_string(version));
  }
  if (!IsValidDType(dtype_raw)) {
    return DataLossError("KDP header: bad dtype");
  }
  KdpManifest result;
  result.dtype = static_cast<DType>(dtype_raw);
  std::vector<int64_t> dims(rank);
  for (int64_t& dim : dims) {
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&dim));
  }
  KONDO_ASSIGN_OR_RETURN(result.shape, DecodeShape(dims, "KDP header dims"));
  result.chunk_dims.resize(rank);
  for (int64_t& chunk : result.chunk_dims) {
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&chunk));
    if (chunk <= 0) {
      return DataLossError("KDP header: non-positive chunk dim");
    }
  }

  const int64_t header_bytes = result.HeaderBytes();
  if (trailer.manifest_offset < header_bytes) {
    return DataLossError("KDP manifest: overlaps the header");
  }
  const KdpChunkGrid grid = result.MakeGrid();
  if (trailer.num_chunks != grid.num_chunks()) {
    return DataLossError("KDP manifest: chunk count " +
                         std::to_string(trailer.num_chunks) +
                         " does not match the chunk grid (" +
                         std::to_string(grid.num_chunks()) + ")");
  }
  if (static_cast<int64_t>(manifest.size()) !=
      trailer.num_chunks * kKdpManifestEntryBytes) {
    return DataLossError("KDP manifest: short read");
  }

  uint32_t crc = Crc32(header.data(), static_cast<size_t>(header_bytes));
  crc = Crc32Update(crc, manifest.data(), manifest.size());
  if (crc != trailer.file_crc) {
    return DataLossError("KDP manifest: file CRC mismatch (corrupt header "
                         "or chunk table)");
  }

  const int64_t payload_bytes = trailer.manifest_offset - header_bytes;
  int64_t next_offset = 0;
  ByteCursor entries(manifest, "KDP manifest");
  result.chunks.resize(static_cast<size_t>(trailer.num_chunks));
  for (int64_t c = 0; c < trailer.num_chunks; ++c) {
    KdpChunkInfo& info = result.chunks[static_cast<size_t>(c)];
    uint8_t codec_raw = 0;
    KONDO_RETURN_IF_ERROR(entries.ReadU8(&codec_raw));
    KONDO_RETURN_IF_ERROR(entries.ReadI64(&info.offset));
    KONDO_RETURN_IF_ERROR(entries.ReadI64(&info.encoded_bytes));
    KONDO_RETURN_IF_ERROR(entries.ReadI64(&info.decoded_bytes));
    KONDO_RETURN_IF_ERROR(entries.ReadU32(&info.crc32));
    if (!IsValidKdpCodec(codec_raw)) {
      return DataLossError("KDP manifest: chunk " + std::to_string(c) +
                           ": unknown codec " + std::to_string(codec_raw));
    }
    info.codec = static_cast<KdpCodec>(codec_raw);
    if (info.codec == KdpCodec::kHole) {
      if (info.encoded_bytes != 0 || info.decoded_bytes != 0) {
        return DataLossError("KDP manifest: chunk " + std::to_string(c) +
                             ": hole with payload bytes");
      }
      continue;
    }
    if (info.encoded_bytes <= 0 || info.decoded_bytes <= 0 ||
        info.offset != next_offset ||
        info.encoded_bytes > payload_bytes - info.offset) {
      return DataLossError("KDP manifest: chunk " + std::to_string(c) +
                           ": payload bounds out of order or past the "
                           "manifest");
    }
    next_offset = info.offset + info.encoded_bytes;
  }
  if (next_offset != payload_bytes) {
    return DataLossError("KDP manifest: payload bytes unaccounted for");
  }
  result.file_crc = trailer.file_crc;
  return result;
}

std::vector<int64_t> DefaultKdpChunkDims(const Shape& shape) {
  std::vector<int64_t> chunk_dims(static_cast<size_t>(shape.rank()));
  for (int d = 0; d < shape.rank(); ++d) {
    chunk_dims[static_cast<size_t>(d)] = std::max<int64_t>(2, shape.dim(d) / 16);
  }
  return chunk_dims;
}

}  // namespace kondo
