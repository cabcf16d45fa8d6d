#ifndef KONDO_SERVE_ARTIFACT_POOL_H_
#define KONDO_SERVE_ARTIFACT_POOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "pack/pack_reader.h"
#include "provenance/provenance_store.h"
#include "serve/kpc.h"
#include "serve/subset_cache.h"
#include "shard/shard_campaign.h"

namespace kondo {

/// The artefacts a kondo daemon serves from: a flat pool directory of
/// `.kdp` packages (fetch-subset) and `.kel2` lineage stores
/// (query-provenance), fronted by the fingerprint-keyed subset cache and
/// pools of open ProvenanceStore / PackReader handles.
///
/// Every fetch fingerprints the package file once (the same byte-count +
/// CRC32 a shard KSS `A` line records) and uses that one fingerprint both
/// for the cache key and to validate the open PackReader, so a pool file
/// rewritten between requests misses the cache naturally, its older
/// entries are swept as stale, and its handle is reopened. The store pool
/// does the analogous check for KEL2 stores. The subset-cache key also
/// embeds the pack fingerprint (manifest CRC), so a repack can never serve
/// stale cached slices.
class ArtifactPool {
 public:
  ArtifactPool(std::string root, int64_t cache_bytes);

  /// Resolves a client-supplied pool-relative name. kInvalidArgument for
  /// empty names, absolute paths, or any ".." component — clients name
  /// pool members, they do not address the filesystem.
  StatusOr<std::string> ResolvePath(const std::string& name) const;

  /// Builds (or serves from cache) the encoded FetchSubsetResponse payload
  /// for the request. The returned bytes are shared with the cache: a hit
  /// returns the identical string a miss inserted. kInvalidArgument when
  /// the artifact is not a `.kdp` name.
  StatusOr<std::shared_ptr<const std::string>> FetchSubsetPayload(
      const FetchSubsetRequest& request) KONDO_EXCLUDES(packs_mu_, fill_mu_);

  /// Returns the open ProvenanceStore for a pooled `.kel2` name, opening
  /// or (on fingerprint change) reopening it.
  StatusOr<std::shared_ptr<ProvenanceStore>> OpenStore(
      const std::string& name) KONDO_EXCLUDES(stores_mu_);

  SubsetCacheStats cache_stats() const { return cache_.stats(); }
  int64_t stores_open() const KONDO_EXCLUDES(stores_mu_);
  int64_t stores_reopened() const KONDO_EXCLUDES(stores_mu_);
  int64_t packs_open() const KONDO_EXCLUDES(packs_mu_);
  int64_t packs_reopened() const KONDO_EXCLUDES(packs_mu_);
  const std::string& root() const { return root_; }

 private:
  struct OpenStoreEntry {
    int64_t fingerprint_bytes = 0;
    uint32_t fingerprint_crc = 0;
    std::shared_ptr<ProvenanceStore> handle;
  };
  struct OpenPackEntry {
    int64_t fingerprint_bytes = 0;
    uint32_t fingerprint_crc = 0;
    std::shared_ptr<PackReader> handle;
  };

  /// Returns the open PackReader for the pooled `.kdp` `name` at `path`,
  /// opening it, or reopening it when `info` (the fetch's fingerprint of
  /// the file, e.g. after a repack) differs from the one it was opened at.
  /// Taking the fingerprint from the caller hashes each fetch's file once.
  StatusOr<std::shared_ptr<PackReader>> OpenPack(const std::string& name,
                                                 const std::string& path,
                                                 const ShardArtifactInfo& info)
      KONDO_EXCLUDES(packs_mu_);

  /// Decodes the requested slice from `reader` and inserts it into the
  /// subset cache under `key`; called by the one request loading `key`.
  StatusOr<std::shared_ptr<const std::string>> LoadSlice(
      const FetchSubsetRequest& request, const ShardArtifactInfo& info,
      PackReader& reader, const SubsetKey& key) KONDO_EXCLUDES(fill_mu_);

  const std::string root_;
  Mutex fill_mu_;
  std::set<SubsetKey> loading_ KONDO_GUARDED_BY(fill_mu_);  // Slices loading.
  CondVar loaded_;  // Signalled when a slice leaves `loading_`.
  SubsetCache cache_;
  mutable Mutex stores_mu_;
  std::map<std::string, OpenStoreEntry> stores_ KONDO_GUARDED_BY(stores_mu_);
  int64_t stores_reopened_ KONDO_GUARDED_BY(stores_mu_) = 0;
  mutable Mutex packs_mu_;
  std::map<std::string, OpenPackEntry> packs_ KONDO_GUARDED_BY(packs_mu_);
  int64_t packs_reopened_ KONDO_GUARDED_BY(packs_mu_) = 0;
};

}  // namespace kondo

#endif  // KONDO_SERVE_ARTIFACT_POOL_H_
