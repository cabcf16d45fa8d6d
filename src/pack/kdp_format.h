#ifndef KONDO_PACK_KDP_FORMAT_H_
#define KONDO_PACK_KDP_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "array/dtype.h"
#include "array/index.h"
#include "array/shape.h"
#include "common/statusor.h"

namespace kondo {

/// KDP — "Kondo Debloated Package" — stores a debloated array `D_Θ` as
/// independently compressed chunks behind a manifest (docs/FORMATS.md):
///
///   header   magic "KDP1" | u8 version | u8 dtype | u8 rank | u8 reserved
///            | i64 dims[rank] | i64 chunk_dims[rank]
///   payload  encoded chunk payloads, ascending chunk id (holes absent)
///   manifest per chunk: u8 codec | i64 offset | i64 encoded_bytes
///            | i64 decoded_bytes | u32 crc32 (of the DECODED payload)
///   trailer  i64 manifest_offset | i64 num_chunks | u32 file_crc32
///            (header + manifest bytes) | magic "KDPE"
///
/// The chunk grid tiles the element space the same way the carve pipeline's
/// chunk-granular subsets do (src/carve/chunk_subset.h): row-major chunk
/// coordinates, edge chunks clipped to the shape. A chunk's decoded payload
/// is a membership bitmap over its in-bounds elements (chunk-local
/// row-major, LSB-first bits) followed by the retained elements' on-disk
/// bytes (array/kdf_file.h element encoding), so random reads touch only
/// the covering chunk. CRCs are over decoded bytes: corruption is caught
/// after decode, and Repack can detect clean chunks without decoding them.

inline constexpr char kKdpMagic[4] = {'K', 'D', 'P', '1'};
inline constexpr char kKdpTrailerMagic[4] = {'K', 'D', 'P', 'E'};
inline constexpr uint8_t kKdpVersion = 1;
inline constexpr int64_t kKdpTrailerBytes = 8 + 8 + 4 + 4;
inline constexpr int64_t kKdpManifestEntryBytes = 1 + 8 + 8 + 8 + 4;
/// The largest header a u8 rank can declare.
inline constexpr int64_t kKdpMaxHeaderBytes = 8 + 16 * 255;

/// Per-chunk codec ids as stored in the manifest.
enum class KdpCodec : uint8_t {
  kHole = 0,        // Entirely outside I'_Θ: zero payload bytes.
  kRaw = 1,         // Decoded bytes stored verbatim (incompressible).
  kDeltaVarint = 2, // Integer dtypes: delta + zigzag + LEB128 varint.
  kBytePlane = 3,   // Float dtypes: byte-plane transpose + RLE.
};

/// True when `value` is a valid KdpCodec wire value.
bool IsValidKdpCodec(uint8_t value);

/// Stable codec name, e.g. "delta-varint".
const char* KdpCodecName(KdpCodec codec);

/// One manifest entry: where chunk `id`'s encoded bytes live and what they
/// must decode to. `offset` is relative to the payload base (the first byte
/// after the header); hole chunks carry offset/encoded/decoded 0.
struct KdpChunkInfo {
  KdpCodec codec = KdpCodec::kHole;
  int64_t offset = 0;
  int64_t encoded_bytes = 0;
  int64_t decoded_bytes = 0;
  uint32_t crc32 = 0;  // CRC of the decoded payload bytes.
};

/// The chunk grid a KDP file tiles the element space by: row-major chunk
/// coordinates, elements row-major within each chunk, edge chunks clipped
/// to the shape (no padding — a clipped chunk stores only in-bounds
/// elements, unlike the dense KDF chunk model).
class KdpChunkGrid {
 public:
  KdpChunkGrid() = default;

  /// `chunk_dims` must have the shape's rank with positive extents.
  KdpChunkGrid(Shape shape, std::vector<int64_t> chunk_dims);

  const Shape& shape() const { return shape_; }
  const std::vector<int64_t>& chunk_dims() const { return chunk_dims_; }
  int64_t num_chunks() const { return num_chunks_; }

  /// Chunk id (row-major over the chunk grid) covering `index`.
  int64_t ChunkOfIndex(const Index& index) const;

  /// Chunk id covering the row-major linear element id.
  int64_t ChunkOfLinear(int64_t linear) const;

  /// Origin (element coordinates) of chunk `chunk`.
  Index ChunkOrigin(int64_t chunk) const;

  /// In-bounds extents of chunk `chunk` (clipped at the shape boundary).
  std::vector<int64_t> ChunkExtents(int64_t chunk) const;

  /// Number of in-bounds elements of chunk `chunk`.
  int64_t ChunkElements(int64_t chunk) const;

  /// Chunk-local position (row-major over the clipped chunk box) of the
  /// element at `index`. Requires shape().Contains(index).
  int64_t LocalPosition(const Index& index) const;

  /// Invokes `fn(index)` for every in-bounds element of chunk `chunk`, in
  /// chunk-local row-major order.
  template <typename Fn>
  void ForEachChunkElement(int64_t chunk, Fn&& fn) const {
    const Index origin = ChunkOrigin(chunk);
    const std::vector<int64_t> extents = ChunkExtents(chunk);
    const int rank = shape_.rank();
    Index index = origin;
    for (;;) {
      fn(index);
      int d = rank - 1;
      for (; d >= 0; --d) {
        if (++index[d] < origin[d] + extents[static_cast<size_t>(d)]) {
          break;
        }
        index[d] = origin[d];
      }
      if (d < 0) {
        return;
      }
    }
  }

 private:
  Shape shape_;
  std::vector<int64_t> chunk_dims_;
  std::vector<int64_t> grid_dims_;  // Chunks per dimension (ceil division).
  int64_t num_chunks_ = 1;
};

/// Everything the manifest + header describe about one KDP file.
struct KdpManifest {
  DType dtype = DType::kFloat128;
  Shape shape;
  std::vector<int64_t> chunk_dims;
  std::vector<KdpChunkInfo> chunks;

  /// CRC32 over the serialised header + manifest bytes — the package
  /// fingerprint a subset-cache key embeds.
  uint32_t file_crc = 0;

  int64_t HeaderBytes() const {
    return 8 + 16 * shape.rank();
  }
  int64_t ManifestBytes() const {
    return kKdpManifestEntryBytes * static_cast<int64_t>(chunks.size());
  }

  KdpChunkGrid MakeGrid() const { return KdpChunkGrid(shape, chunk_dims); }
};

/// Serialises the fixed header (magic through chunk_dims).
std::string EncodeKdpHeader(const KdpManifest& manifest);

/// Serialises the manifest chunk table (no trailer).
std::string EncodeKdpManifest(const KdpManifest& manifest);

/// Serialises the 24-byte trailer. `file_crc` must cover the header bytes
/// followed by the manifest bytes.
std::string EncodeKdpTrailer(int64_t manifest_offset, int64_t num_chunks,
                             uint32_t file_crc);

/// The fixed-size tail a reader parses first to locate the manifest.
struct KdpTrailer {
  int64_t manifest_offset = 0;
  int64_t num_chunks = 0;
  uint32_t file_crc = 0;
};

/// Parses the trailer from the file's last kKdpTrailerBytes bytes and
/// bounds-checks it against the file size. kDataLoss on bad magic or an
/// inconsistent manifest location.
StatusOr<KdpTrailer> DecodeKdpTrailer(std::string_view tail,
                                      int64_t file_bytes);

/// Parses and validates the header and manifest sections against the
/// trailer: magic, version, dtype, dims, per-chunk table (codec validity,
/// payload bounds, offset monotonicity) and the file CRC. `header` is a
/// prefix of the file at least as long as the header (the rank byte sizes
/// it; bytes past it are ignored). kDataLoss on any structural or checksum
/// mismatch.
StatusOr<KdpManifest> DecodeKdpManifest(std::string_view header,
                                        std::string_view manifest,
                                        const KdpTrailer& trailer);

/// Default pack chunk grid for `shape`: max(2, dim/16) per dimension — the
/// same carve-aligned tiling `kondo make-data --chunked` uses.
std::vector<int64_t> DefaultKdpChunkDims(const Shape& shape);

}  // namespace kondo

#endif  // KONDO_PACK_KDP_FORMAT_H_
