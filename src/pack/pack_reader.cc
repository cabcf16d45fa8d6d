#include "pack/pack_reader.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "array/data_array.h"
#include "array/index_set.h"
#include "array/kdf_file.h"
#include "common/status.h"
#include "common/strings.h"
#include "exec/campaign_executor.h"
#include "pack/chunk_codec.h"
#include "provenance/crc32.h"

namespace kondo {
namespace {

/// True when bit `local` of the chunk's membership bitmap is set.
bool BitmapTest(const std::string& payload, int64_t local) {
  return (static_cast<uint8_t>(payload[static_cast<size_t>(local / 8)]) >>
          (local % 8)) &
         1;
}

/// Number of set bitmap bits in [0, local) — the packed position of the
/// retained element at `local`.
int64_t BitmapRank(const std::string& payload, int64_t local) {
  int64_t rank = 0;
  const int64_t full_bytes = local / 8;
  for (int64_t b = 0; b < full_bytes; ++b) {
    rank += std::popcount(
        static_cast<unsigned>(static_cast<uint8_t>(payload[b])));
  }
  const int bits = static_cast<int>(local % 8);
  if (bits > 0) {
    const uint8_t byte = static_cast<uint8_t>(payload[full_bytes]);
    rank += std::popcount(static_cast<unsigned>(byte & ((1u << bits) - 1)));
  }
  return rank;
}

/// Reads and decodes the header, trailer and manifest of the KDP package
/// open as `file`.
StatusOr<KdpManifest> ReadManifest(const RandomAccessFile& file) {
  const int64_t file_bytes = file.Size();
  if (file_bytes < kKdpTrailerBytes) {
    return DataLossError("not a KDP package (short file)");
  }
  // The header is at most kKdpMaxHeaderBytes: read that much (or the whole
  // file) and let the decoder find its end from the rank byte.
  std::string header(
      static_cast<size_t>(std::min(kKdpMaxHeaderBytes, file_bytes)), '\0');
  std::string tail(static_cast<size_t>(kKdpTrailerBytes), '\0');
  KONDO_RETURN_IF_ERROR(file.ReadFully(0, header.size(), header.data()));
  KONDO_RETURN_IF_ERROR(file.ReadFully(file_bytes - kKdpTrailerBytes,
                                       kKdpTrailerBytes, tail.data()));
  KONDO_ASSIGN_OR_RETURN(const KdpTrailer trailer,
                         DecodeKdpTrailer(tail, file_bytes));
  std::string table(
      static_cast<size_t>(trailer.num_chunks * kKdpManifestEntryBytes), '\0');
  KONDO_RETURN_IF_ERROR(
      file.ReadFully(trailer.manifest_offset, table.size(), table.data()));
  return DecodeKdpManifest(header, table, trailer);
}

}  // namespace

StatusOr<std::unique_ptr<PackReader>> PackReader::Open(
    const std::string& path, const PackReadOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                         env->NewRandomAccessFile(path));
  StatusOr<KdpManifest> manifest = ReadManifest(*file);
  if (!manifest.ok()) {
    return Status(manifest.status().code(),
                  StrCat(manifest.status().message(), ": ", path));
  }
  std::unique_ptr<PackReader> reader(
      new PackReader(std::move(file), *std::move(manifest), options));

  // Per-chunk geometry check the manifest decoder cannot do (it has no
  // grid element counts): decoded bytes must be bitmap + whole elements,
  // which also yields the retained count without decoding anything.
  const int64_t elem_size = DTypeSize(reader->dtype());
  for (int64_t c = 0; c < reader->grid_.num_chunks(); ++c) {
    const KdpChunkInfo& info = reader->manifest_.chunks[static_cast<size_t>(c)];
    if (info.codec == KdpCodec::kHole) {
      continue;
    }
    const int64_t bitmap_bytes = KdpBitmapBytes(reader->grid_.ChunkElements(c));
    const int64_t value_bytes = info.decoded_bytes - bitmap_bytes;
    if (value_bytes < 0 || value_bytes % elem_size != 0 ||
        value_bytes / elem_size > reader->grid_.ChunkElements(c)) {
      return DataLossError("KDP manifest: chunk " + std::to_string(c) +
                           ": decoded size inconsistent with the chunk "
                           "geometry");
    }
    reader->retained_count_ += value_bytes / elem_size;
  }
  return reader;
}

PackReader::PackReader(std::unique_ptr<RandomAccessFile> file,
                       KdpManifest manifest, PackReadOptions options)
    : file_(std::move(file)),
      manifest_(std::move(manifest)),
      grid_(manifest_.MakeGrid()),
      options_(options) {}

StatusOr<std::string> PackReader::DecodeChunkUncached(int64_t chunk) const {
  const KdpChunkInfo& info = manifest_.chunks[static_cast<size_t>(chunk)];
  const int64_t elements = grid_.ChunkElements(chunk);
  if (info.codec == KdpCodec::kHole) {
    return std::string(static_cast<size_t>(KdpBitmapBytes(elements)), '\0');
  }
  std::string encoded(static_cast<size_t>(info.encoded_bytes), '\0');
  KONDO_RETURN_IF_ERROR(file_->ReadFully(manifest_.HeaderBytes() + info.offset,
                                        info.encoded_bytes, encoded.data()));
  StatusOr<std::string> decoded = DecodeChunkPayload(
      info.codec, manifest_.dtype, elements, info.decoded_bytes, encoded);
  if (!decoded.ok()) {
    return DataLossError("KDP chunk " + std::to_string(chunk) + " (" +
                         KdpCodecName(info.codec) +
                         "): " + decoded.status().message());
  }
  if (Crc32(decoded->data(), decoded->size()) != info.crc32) {
    return DataLossError("KDP chunk " + std::to_string(chunk) +
                         ": decoded payload CRC mismatch (corrupt chunk)");
  }
  return decoded;
}

StatusOr<std::shared_ptr<const std::string>> PackReader::DecodedChunk(
    int64_t chunk) {
  {
    MutexLock lock(mu_);
    auto it = cache_.find(chunk);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.payload;
    }
    ++stats_.cache_misses;
  }

  // Decode outside the lock so concurrent sessions decode different chunks
  // in parallel; a race on the same chunk wastes one decode, nothing more.
  KONDO_ASSIGN_OR_RETURN(std::string decoded, DecodeChunkUncached(chunk));
  auto payload = std::make_shared<const std::string>(std::move(decoded));

  MutexLock lock(mu_);
  ++stats_.chunks_decoded;
  auto it = cache_.find(chunk);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.payload;
  }
  lru_.push_front(chunk);
  cache_[chunk] = CacheEntry{payload, lru_.begin()};
  cached_bytes_ += static_cast<int64_t>(payload->size());
  while (cached_bytes_ > options_.cache_bytes && !lru_.empty()) {
    const int64_t victim = lru_.back();
    lru_.pop_back();
    auto victim_it = cache_.find(victim);
    cached_bytes_ -= static_cast<int64_t>(victim_it->second.payload->size());
    cache_.erase(victim_it);
    ++stats_.cache_evictions;
  }
  return payload;
}

StatusOr<double> PackReader::ReadElement(const Index& index) {
  if (!shape().Contains(index)) {
    return OutOfRangeError("index out of bounds");
  }
  const int64_t chunk = grid_.ChunkOfIndex(index);
  KONDO_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> payload,
                         DecodedChunk(chunk));
  const int64_t local = grid_.LocalPosition(index);
  if (!BitmapTest(*payload, local)) {
    return DataMissingError("access to debloated (Null) index " +
                            index.ToString());
  }
  const int64_t bitmap_bytes = KdpBitmapBytes(grid_.ChunkElements(chunk));
  const int64_t packed = BitmapRank(*payload, local);
  return DecodeElement(
      payload->data() + bitmap_bytes + packed * DTypeSize(dtype()), dtype());
}

Status PackReader::ReadRange(int64_t begin, int64_t end,
                             std::vector<uint8_t>* present,
                             std::vector<double>* values) {
  const int64_t total = shape().NumElements();
  if (begin < 0 || end < begin || end > total) {
    return OutOfRangeError("packed range [" + std::to_string(begin) + ", " +
                           std::to_string(end) + ") outside 0.." +
                           std::to_string(total));
  }
  present->assign(static_cast<size_t>(end - begin), 0);
  values->clear();
  int64_t current_chunk = -1;
  std::shared_ptr<const std::string> payload;
  int64_t bitmap_bytes = 0;
  const int64_t elem_size = DTypeSize(dtype());
  for (int64_t linear = begin; linear < end; ++linear) {
    const Index index = shape().Delinearize(linear);
    const int64_t chunk = grid_.ChunkOfIndex(index);
    if (chunk != current_chunk) {
      KONDO_ASSIGN_OR_RETURN(payload, DecodedChunk(chunk));
      bitmap_bytes = KdpBitmapBytes(grid_.ChunkElements(chunk));
      current_chunk = chunk;
    }
    const int64_t local = grid_.LocalPosition(index);
    if (!BitmapTest(*payload, local)) {
      continue;
    }
    (*present)[static_cast<size_t>(linear - begin)] = 1;
    const int64_t packed = BitmapRank(*payload, local);
    values->push_back(DecodeElement(
        payload->data() + bitmap_bytes + packed * elem_size, dtype()));
  }
  return OkStatus();
}

StatusOr<DebloatedArray> PackReader::Unpack(ThreadPool* pool, int jobs) {
  const int64_t n = grid_.num_chunks();
  std::vector<std::string> payloads(static_cast<size_t>(n));
  std::vector<Status> statuses(static_cast<size_t>(n), OkStatus());
  CampaignExecutor executor =
      pool != nullptr ? CampaignExecutor(pool, jobs) : CampaignExecutor(jobs);
  executor.ParallelFor(n, [&](int64_t c) {
    StatusOr<std::string> decoded = DecodeChunkUncached(c);
    if (decoded.ok()) {
      payloads[static_cast<size_t>(c)] = *std::move(decoded);
    } else {
      statuses[static_cast<size_t>(c)] = decoded.status();
    }
  });
  for (const Status& status : statuses) {
    KONDO_RETURN_IF_ERROR(status);
  }

  // Serial scatter: IndexSet is not thread-safe, and the decode above is
  // where the time goes.
  DataArray data(shape(), dtype());
  IndexSet::Builder retained(shape());
  const int64_t elem_size = DTypeSize(dtype());
  for (int64_t c = 0; c < n; ++c) {
    const std::string& payload = payloads[static_cast<size_t>(c)];
    const int64_t bitmap_bytes = KdpBitmapBytes(grid_.ChunkElements(c));
    int64_t local = 0;
    int64_t packed = 0;
    grid_.ForEachChunkElement(c, [&](const Index& index) {
      if (BitmapTest(payload, local)) {
        const int64_t linear = shape().Linearize(index);
        data.SetLinear(linear,
                       DecodeElement(payload.data() + bitmap_bytes +
                                         packed * elem_size,
                                     dtype()));
        retained.InsertLinear(linear);
        ++packed;
      }
      ++local;
    });
  }
  return DebloatedArray::FromDataArray(data, retained.Build());
}

StatusOr<std::string> PackReader::ReadEncodedChunk(int64_t chunk) const {
  if (chunk < 0 || chunk >= grid_.num_chunks()) {
    return OutOfRangeError("chunk id " + std::to_string(chunk) +
                           " outside the chunk grid");
  }
  const KdpChunkInfo& info = manifest_.chunks[static_cast<size_t>(chunk)];
  if (info.codec == KdpCodec::kHole) {
    return std::string();
  }
  std::string encoded(static_cast<size_t>(info.encoded_bytes), '\0');
  KONDO_RETURN_IF_ERROR(file_->ReadFully(manifest_.HeaderBytes() + info.offset,
                                        info.encoded_bytes, encoded.data()));
  return encoded;
}

PackReaderStats PackReader::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace kondo
