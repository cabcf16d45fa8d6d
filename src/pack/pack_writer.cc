#include "pack/pack_writer.h"

#include <cstring>
#include <memory>
#include <utility>

#include "array/kdf_file.h"
#include "common/status.h"
#include "exec/campaign_executor.h"
#include "pack/chunk_codec.h"
#include "pack/pack_reader.h"
#include "provenance/crc32.h"

namespace kondo {
namespace {

/// One chunk's encoding outcome, held in a per-chunk slot so the codec fan
/// -out stays jobs-invariant: slots are filled in any order and appended in
/// chunk order.
struct EncodedChunk {
  KdpCodec codec = KdpCodec::kHole;
  std::string encoded;
  int64_t decoded_bytes = 0;
  uint32_t crc = 0;
  bool reused = false;  // Repack copied the encoded bytes verbatim.
};

/// Gathers chunk `chunk`'s decoded payload from `array`: the membership
/// bitmap over the chunk's in-bounds elements followed by the retained
/// elements' on-disk bytes. `*retained` receives the chunk's popcount.
std::string GatherChunkPayload(const KdpChunkGrid& grid, int64_t chunk,
                               const DebloatedArray& array,
                               int64_t* retained) {
  const int64_t elements = grid.ChunkElements(chunk);
  const int64_t bitmap_bytes = KdpBitmapBytes(elements);
  const int64_t elem_size = DTypeSize(array.dtype());
  std::string decoded(static_cast<size_t>(bitmap_bytes), '\0');
  decoded.reserve(static_cast<size_t>(bitmap_bytes + elements * elem_size));
  char buf[16];
  int64_t pos = 0;
  int64_t count = 0;
  grid.ForEachChunkElement(chunk, [&](const Index& index) {
    if (array.IsRetained(index)) {
      decoded[static_cast<size_t>(pos / 8)] = static_cast<char>(
          static_cast<uint8_t>(decoded[static_cast<size_t>(pos / 8)]) |
          (1u << (pos % 8)));
      EncodeElement(array.At(index).value(), array.dtype(), buf);
      decoded.append(buf, static_cast<size_t>(elem_size));
      ++count;
    }
    ++pos;
  });
  *retained = count;
  return decoded;
}

/// Encodes one gathered chunk: hole when empty, otherwise the dtype's
/// preferred codec with a raw fallback when coding does not shrink it.
EncodedChunk EncodeOneChunk(DType dtype, int64_t elements,
                            std::string decoded, int64_t retained) {
  EncodedChunk out;
  if (retained == 0) {
    return out;  // Hole: zero payload bytes.
  }
  out.decoded_bytes = static_cast<int64_t>(decoded.size());
  out.crc = Crc32(decoded.data(), decoded.size());
  const KdpCodec preferred = PreferredKdpCodec(dtype);
  std::string coded = EncodeChunkPayload(preferred, dtype, elements, decoded);
  if (coded.size() < decoded.size()) {
    out.codec = preferred;
    out.encoded = std::move(coded);
  } else {
    out.codec = KdpCodec::kRaw;
    out.encoded = std::move(decoded);
  }
  return out;
}

/// Assembles the manifest from the encoded chunks and commits the package
/// atomically: header | payloads (chunk order) | manifest | trailer.
StatusOr<PackStats> CommitKdp(const std::string& path, DType dtype,
                              const Shape& shape,
                              const std::vector<int64_t>& chunk_dims,
                              const std::vector<EncodedChunk>& chunks,
                              Env* env) {
  KdpManifest manifest;
  manifest.dtype = dtype;
  manifest.shape = shape;
  manifest.chunk_dims = chunk_dims;
  manifest.chunks.resize(chunks.size());

  PackStats stats;
  stats.total_chunks = static_cast<int64_t>(chunks.size());
  int64_t offset = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const EncodedChunk& chunk = chunks[c];
    KdpChunkInfo& info = manifest.chunks[c];
    info.codec = chunk.codec;
    if (chunk.codec == KdpCodec::kHole) {
      ++stats.hole_chunks;
      continue;
    }
    info.offset = offset;
    info.encoded_bytes = static_cast<int64_t>(chunk.encoded.size());
    info.decoded_bytes = chunk.decoded_bytes;
    info.crc32 = chunk.crc;
    offset += info.encoded_bytes;
    stats.decoded_bytes += info.decoded_bytes;
    stats.encoded_bytes += info.encoded_bytes;
    if (chunk.codec == KdpCodec::kRaw) {
      ++stats.raw_chunks;
    } else {
      ++stats.coded_chunks;
    }
    if (chunk.reused) {
      ++stats.chunks_reused;
    }
  }

  const std::string header = EncodeKdpHeader(manifest);
  const std::string table = EncodeKdpManifest(manifest);
  uint32_t file_crc = Crc32(header.data(), header.size());
  file_crc = Crc32Update(file_crc, table.data(), table.size());

  KONDO_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path, env));
  KONDO_RETURN_IF_ERROR(file.Append(header));
  for (const EncodedChunk& chunk : chunks) {
    if (chunk.codec != KdpCodec::kHole) {
      KONDO_RETURN_IF_ERROR(file.Append(chunk.encoded));
    }
  }
  KONDO_RETURN_IF_ERROR(file.Append(table));
  KONDO_RETURN_IF_ERROR(file.Append(EncodeKdpTrailer(
      static_cast<int64_t>(header.size()) + offset,
      static_cast<int64_t>(chunks.size()), file_crc)));
  KONDO_RETURN_IF_ERROR(file.Commit());
  stats.file_bytes = file.bytes_appended();
  return stats;
}

/// Resolves the executor the chunk codecs run on: the shared pool when one
/// is provided, otherwise a private `jobs`-wide pool for this call.
CampaignExecutor MakeExecutor(const PackOptions& options) {
  if (options.pool != nullptr) {
    return CampaignExecutor(options.pool, options.jobs);
  }
  return CampaignExecutor(options.jobs);
}

Status ValidateChunkDims(const Shape& shape,
                         const std::vector<int64_t>& chunk_dims) {
  if (static_cast<int>(chunk_dims.size()) != shape.rank()) {
    return InvalidArgumentError("pack chunk dims rank does not match the "
                                "array shape");
  }
  for (int64_t dim : chunk_dims) {
    if (dim <= 0) {
      return InvalidArgumentError("pack chunk dims must be positive");
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<PackStats> WriteKdpFile(const std::string& path,
                                 const DebloatedArray& array,
                                 const PackOptions& options) {
  std::vector<int64_t> chunk_dims = options.chunk_dims;
  if (chunk_dims.empty()) {
    chunk_dims = DefaultKdpChunkDims(array.shape());
  }
  KONDO_RETURN_IF_ERROR(ValidateChunkDims(array.shape(), chunk_dims));

  const KdpChunkGrid grid(array.shape(), chunk_dims);
  const int64_t n = grid.num_chunks();
  std::vector<EncodedChunk> chunks(static_cast<size_t>(n));
  CampaignExecutor executor = MakeExecutor(options);
  executor.ParallelFor(n, [&](int64_t c) {
    int64_t retained = 0;
    std::string decoded = GatherChunkPayload(grid, c, array, &retained);
    chunks[static_cast<size_t>(c)] = EncodeOneChunk(
        array.dtype(), grid.ChunkElements(c), std::move(decoded), retained);
  });

  return CommitKdp(path, array.dtype(), array.shape(), chunk_dims, chunks,
                   options.env);
}

StatusOr<PackStats> RepackKdpFile(const std::string& in_path,
                                  const std::string& out_path,
                                  const DebloatedArray& updated,
                                  const PackOptions& options) {
  PackReadOptions read_options;
  read_options.env = options.env;
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<PackReader> reader,
                         PackReader::Open(in_path, read_options));
  const KdpManifest& old = reader->manifest();
  if (!(old.shape == updated.shape())) {
    return FailedPreconditionError(
        "repack: array shape " + updated.shape().ToString() +
        " does not match the package (" + old.shape.ToString() + ")");
  }
  if (old.dtype != updated.dtype()) {
    return FailedPreconditionError(
        "repack: array dtype does not match the package");
  }

  // The existing grid is kept so reuse is chunk-for-chunk; a deterministic
  // codec then makes the output byte-identical to a fresh pack.
  const KdpChunkGrid& grid = reader->grid();
  const int64_t n = grid.num_chunks();
  std::vector<EncodedChunk> chunks(static_cast<size_t>(n));
  std::vector<Status> read_errors(static_cast<size_t>(n), OkStatus());
  CampaignExecutor executor = MakeExecutor(options);
  executor.ParallelFor(n, [&](int64_t c) {
    EncodedChunk& slot = chunks[static_cast<size_t>(c)];
    int64_t retained = 0;
    std::string decoded = GatherChunkPayload(grid, c, updated, &retained);
    const KdpChunkInfo& info = old.chunks[static_cast<size_t>(c)];
    if (retained == 0) {
      slot.reused = info.codec == KdpCodec::kHole;  // Hole stayed a hole.
      return;
    }
    const uint32_t crc = Crc32(decoded.data(), decoded.size());
    if (info.codec != KdpCodec::kHole &&
        info.decoded_bytes == static_cast<int64_t>(decoded.size()) &&
        info.crc32 == crc) {
      // Clean chunk: copy the encoded bytes without decoding them.
      StatusOr<std::string> encoded = reader->ReadEncodedChunk(c);
      if (!encoded.ok()) {
        read_errors[static_cast<size_t>(c)] = encoded.status();
        return;
      }
      slot.codec = info.codec;
      slot.encoded = *std::move(encoded);
      slot.decoded_bytes = info.decoded_bytes;
      slot.crc = crc;
      slot.reused = true;
      return;
    }
    slot = EncodeOneChunk(updated.dtype(), grid.ChunkElements(c),
                          std::move(decoded), retained);
  });
  for (const Status& status : read_errors) {
    KONDO_RETURN_IF_ERROR(status);
  }

  KONDO_ASSIGN_OR_RETURN(
      PackStats stats,
      CommitKdp(out_path, updated.dtype(), updated.shape(), grid.chunk_dims(),
                chunks, options.env));
  int64_t reused = 0;
  for (const EncodedChunk& chunk : chunks) {
    if (chunk.reused) {
      ++reused;
    }
  }
  stats.chunks_reused = reused;
  stats.chunks_reencoded = stats.total_chunks - reused;
  return stats;
}

}  // namespace kondo
