#ifndef KONDO_PACK_PACK_WRITER_H_
#define KONDO_PACK_PACK_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/debloated_array.h"
#include "common/env.h"
#include "common/statusor.h"
#include "exec/thread_pool.h"
#include "pack/kdp_format.h"

namespace kondo {

/// Packing knobs shared by WriteKdpFile and RepackKdpFile.
struct PackOptions {
  /// Pack chunk grid; empty selects DefaultKdpChunkDims(shape) — the same
  /// carve-aligned tiling `kondo make-data --chunked` uses. Repack ignores
  /// this and keeps the existing file's grid (reuse is chunk-for-chunk).
  std::vector<int64_t> chunk_dims;

  /// Chunk codec workers. With a `pool`, codecs fan out over that shared
  /// ThreadPool (never call from inside one of its tasks); otherwise
  /// `jobs > 1` spins up a private pool for the call. Output bytes are
  /// identical at every setting — chunks are encoded into per-chunk slots
  /// and appended in chunk order.
  int jobs = 1;
  ThreadPool* pool = nullptr;

  /// Filesystem access for the commit protocol (and for the package a
  /// repack reads); nullptr selects Env::Default(). The package commits
  /// through AtomicFile, so a crash at any mutating op leaves either no
  /// `.kdp` or the previous/new complete one.
  Env* env = nullptr;
};

/// Outcome of one pack/repack: chunk classification and size accounting.
struct PackStats {
  int64_t total_chunks = 0;
  int64_t hole_chunks = 0;
  int64_t raw_chunks = 0;
  int64_t coded_chunks = 0;
  int64_t decoded_bytes = 0;  // Sum of non-hole decoded payloads.
  int64_t encoded_bytes = 0;  // Sum of encoded payloads.
  int64_t file_bytes = 0;     // Committed package size, trailer included.
  int64_t chunks_reused = 0;      // Repack: encoded bytes copied verbatim.
  int64_t chunks_reencoded = 0;   // Repack: dirty chunks re-run through
                                  // the codec.
};

/// Packs `array` into a KDP file at `path` (atomic commit). The writer
/// tiles the element space by the chunk grid, classifies each chunk as
/// hole / raw / coded, and records the manifest + CRC trailer. The same
/// array, grid, and codec version always produce byte-identical packages.
StatusOr<PackStats> WriteKdpFile(const std::string& path,
                                 const DebloatedArray& array,
                                 const PackOptions& options = {});

/// Rewrites the package at `in_path` as `out_path` carrying `updated`,
/// re-encoding only the chunks whose decoded bytes changed: clean chunks'
/// encoded payloads are copied verbatim (detected by manifest decoded
/// length + CRC, no decode). `in_path == out_path` repacks in place. The
/// result is byte-identical to a fresh WriteKdpFile of `updated` with the
/// same grid. kFailedPrecondition when `updated` does not match the
/// package's shape or dtype.
StatusOr<PackStats> RepackKdpFile(const std::string& in_path,
                                  const std::string& out_path,
                                  const DebloatedArray& updated,
                                  const PackOptions& options = {});

}  // namespace kondo

#endif  // KONDO_PACK_PACK_WRITER_H_
