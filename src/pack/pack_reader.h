#ifndef KONDO_PACK_PACK_READER_H_
#define KONDO_PACK_PACK_READER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/debloated_array.h"
#include "array/index.h"
#include "common/env.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "pack/kdp_format.h"

namespace kondo {

/// Read-side knobs for PackReader.
struct PackReadOptions {
  /// Capacity of the decoded-chunk LRU cache in decoded bytes. A single
  /// chunk larger than the cap is still served, it just never stays
  /// resident.
  int64_t cache_bytes = 8 << 20;

  /// Filesystem access for reads; nullptr selects Env::Default().
  Env* env = nullptr;
};

/// Decoded-chunk cache counters (monotonic over the reader's lifetime).
struct PackReaderStats {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t chunks_decoded = 0;
};

/// Random-access reader over a KDP package. Element and range reads decode
/// only the covering chunks, keeping recently decoded payloads in a
/// byte-capacity LRU cache; Unpack() reconstructs the full DebloatedArray,
/// fanning chunk decodes out over a shared ThreadPool.
///
/// Thread-safe: reads are positioned reads of one RandomAccessFile and the
/// cache is internally locked, so one PackReader may serve concurrent
/// sessions (the ArtifactPool pools open readers per artifact).
class PackReader {
 public:
  /// Opens `path`, parses trailer + manifest, and validates both (magic,
  /// CRC, chunk-table bounds). kDataLoss on any structural damage.
  static StatusOr<std::unique_ptr<PackReader>> Open(
      const std::string& path, const PackReadOptions& options = {});

  const KdpManifest& manifest() const { return manifest_; }
  const KdpChunkGrid& grid() const { return grid_; }
  const Shape& shape() const { return manifest_.shape; }
  DType dtype() const { return manifest_.dtype; }

  /// The package fingerprint (CRC32 over header + manifest bytes) — what a
  /// subset-cache key embeds so a repack invalidates cached responses.
  uint32_t pack_fingerprint() const { return manifest_.file_crc; }

  /// Total package size in bytes.
  int64_t FileBytes() const { return file_->Size(); }

  /// Retained elements across all chunks (popcount of the chunk bitmaps,
  /// computed once at Open).
  int64_t retained_count() const { return retained_count_; }

  /// Reads the element at `index`: kDataMissing for debloated (Null)
  /// entries, kOutOfRange outside the shape. Decodes at most the one
  /// covering chunk (served from cache when warm).
  StatusOr<double> ReadElement(const Index& index);

  /// Reads the linear-id range [begin, end): `present[i]` is 1 when element
  /// begin+i is retained, and `values` receives the retained values in
  /// order (values->size() == popcount of present). Decodes only the chunks
  /// the range touches.
  Status ReadRange(int64_t begin, int64_t end, std::vector<uint8_t>* present,
                   std::vector<double>* values);

  /// Decodes every chunk and reassembles `D_Θ`. Chunk decodes fan out over
  /// `pool` (or a private pool when `pool` is null and jobs > 1); the
  /// result is byte-identical at every jobs value and to the array that was
  /// packed. Decoded chunks bypass the LRU cache — a full unpack would only
  /// evict a working set.
  StatusOr<DebloatedArray> Unpack(ThreadPool* pool = nullptr, int jobs = 1);

  /// Reads chunk `chunk`'s encoded payload bytes verbatim (no decode) —
  /// what Repack copies for clean chunks. Holes yield an empty string.
  StatusOr<std::string> ReadEncodedChunk(int64_t chunk) const;

  /// Snapshot of the cache counters.
  PackReaderStats stats() const;

 private:
  PackReader(std::unique_ptr<RandomAccessFile> file, KdpManifest manifest,
             PackReadOptions options);

  /// Decodes chunk `chunk` (no cache, no lock), verifying the manifest CRC
  /// over the decoded bytes; the error names the chunk. Holes decode to an
  /// all-zero bitmap.
  StatusOr<std::string> DecodeChunkUncached(int64_t chunk) const;

  /// Cache-through decode of chunk `chunk`.
  StatusOr<std::shared_ptr<const std::string>> DecodedChunk(int64_t chunk);

  struct CacheEntry {
    std::shared_ptr<const std::string> payload;
    std::list<int64_t>::iterator lru_pos;
  };

  const std::unique_ptr<RandomAccessFile> file_;
  const KdpManifest manifest_;
  const KdpChunkGrid grid_;
  const PackReadOptions options_;
  int64_t retained_count_ = 0;

  mutable Mutex mu_;
  std::map<int64_t, CacheEntry> cache_ KONDO_GUARDED_BY(mu_);
  std::list<int64_t> lru_ KONDO_GUARDED_BY(mu_);  // Front = most recent.
  int64_t cached_bytes_ KONDO_GUARDED_BY(mu_) = 0;
  PackReaderStats stats_ KONDO_GUARDED_BY(mu_);
};

}  // namespace kondo

#endif  // KONDO_PACK_PACK_READER_H_
