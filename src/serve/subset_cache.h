#ifndef KONDO_SERVE_SUBSET_CACHE_H_
#define KONDO_SERVE_SUBSET_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"

namespace kondo {

/// Cache key for one served D_Θ slice: the package's pool name, its
/// whole-file fingerprint (byte count + CRC32 — exactly what the shard KSS
/// `A` line records for sealed lineage stores), the requested linear
/// element range, and the pack fingerprint (the KDP manifest CRC). Keying
/// on the fingerprints makes coherence structural: an artifact rewritten
/// or repacked on disk hashes to a different key, so stale bytes are
/// unreachable rather than specially invalidated.
struct SubsetKey {
  std::string artifact;
  int64_t fingerprint_bytes = 0;
  uint32_t fingerprint_crc = 0;
  int64_t begin = 0;
  int64_t end = 0;
  uint32_t pack_crc = 0;  // KDP manifest CRC.

  friend bool operator<(const SubsetKey& a, const SubsetKey& b) {
    if (a.artifact != b.artifact) return a.artifact < b.artifact;
    if (a.fingerprint_bytes != b.fingerprint_bytes)
      return a.fingerprint_bytes < b.fingerprint_bytes;
    if (a.fingerprint_crc != b.fingerprint_crc)
      return a.fingerprint_crc < b.fingerprint_crc;
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.end != b.end) return a.end < b.end;
    return a.pack_crc < b.pack_crc;
  }
  friend bool operator==(const SubsetKey& a, const SubsetKey& b) {
    return a.artifact == b.artifact &&
           a.fingerprint_bytes == b.fingerprint_bytes &&
           a.fingerprint_crc == b.fingerprint_crc && a.begin == b.begin &&
           a.end == b.end && a.pack_crc == b.pack_crc;
  }
};

struct SubsetCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;        // Capacity (LRU) evictions.
  int64_t stale_evictions = 0;  // Dropped because the fingerprint changed.
  int64_t entries = 0;
  int64_t bytes = 0;
  int64_t capacity_bytes = 0;
};

/// Byte-capacity LRU cache of encoded FetchSubsetResponse payloads,
/// thread-safe. Values are shared immutable strings: a hit hands back the
/// exact bytes a miss inserted, which is what makes hit and miss responses
/// bit-identical on the wire.
///
/// Eviction is deterministic: strict least-recently-used order, evicting
/// until the new entry fits. An entry larger than the whole capacity is
/// served but never cached.
class SubsetCache {
 public:
  explicit SubsetCache(int64_t capacity_bytes);

  /// Returns the cached payload and refreshes recency, or nullptr (counts
  /// a miss).
  std::shared_ptr<const std::string> Get(const SubsetKey& key)
      KONDO_EXCLUDES(mu_);

  /// Inserts (or refreshes) the payload for `key`, evicting LRU entries as
  /// needed. Returns the (possibly pre-existing) cached value.
  std::shared_ptr<const std::string> Put(const SubsetKey& key,
                                         std::string payload)
      KONDO_EXCLUDES(mu_);

  /// Drops every entry of `artifact` whose fingerprint differs from the
  /// given one; returns the count. Called on each miss-load so entries of
  /// overwritten artifacts don't squat in the LRU until capacity pressure
  /// finds them.
  int64_t EvictStale(const std::string& artifact, int64_t fingerprint_bytes,
                     uint32_t fingerprint_crc) KONDO_EXCLUDES(mu_);

  SubsetCacheStats stats() const KONDO_EXCLUDES(mu_);

 private:
  struct Entry {
    SubsetKey key;
    std::shared_ptr<const std::string> payload;
  };
  using LruList = std::list<Entry>;

  /// Must hold mu_. Evicts from the LRU tail until `need` bytes fit.
  void EvictForLocked(int64_t need) KONDO_REQUIRES(mu_);

  const int64_t capacity_;
  mutable Mutex mu_;
  LruList lru_ KONDO_GUARDED_BY(mu_);  // Front = most recently used.
  std::map<SubsetKey, LruList::iterator> index_ KONDO_GUARDED_BY(mu_);
  SubsetCacheStats stats_ KONDO_GUARDED_BY(mu_);
};

}  // namespace kondo

#endif  // KONDO_SERVE_SUBSET_CACHE_H_
