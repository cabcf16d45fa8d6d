#include "serve/artifact_pool.h"

#include <utility>

namespace kondo {
namespace {

/// True if `name` contains a ".." path component.
bool HasDotDotComponent(const std::string& name) {
  size_t start = 0;
  while (start <= name.size()) {
    size_t slash = name.find('/', start);
    if (slash == std::string::npos) slash = name.size();
    if (slash - start == 2 && name[start] == '.' && name[start + 1] == '.') {
      return true;
    }
    start = slash + 1;
  }
  return false;
}

/// True when the pool name addresses a KDP package.
bool IsPackName(const std::string& name) {
  const std::string suffix = ".kdp";
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace

ArtifactPool::ArtifactPool(std::string root, int64_t cache_bytes)
    : root_(std::move(root)), cache_(cache_bytes) {}

StatusOr<std::string> ArtifactPool::ResolvePath(
    const std::string& name) const {
  if (name.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty artifact name");
  }
  if (name.front() == '/') {
    return Status(StatusCode::kInvalidArgument,
                  "artifact name must be pool-relative: " + name);
  }
  if (HasDotDotComponent(name)) {
    return Status(StatusCode::kInvalidArgument,
                  "artifact name must not contain '..': " + name);
  }
  return root_ + "/" + name;
}

StatusOr<std::shared_ptr<const std::string>> ArtifactPool::FetchSubsetPayload(
    const FetchSubsetRequest& request) {
  if (request.begin < 0 || request.end < request.begin) {
    return Status(StatusCode::kInvalidArgument,
                  "bad element range: want 0 <= begin <= end");
  }
  if (!IsPackName(request.artifact)) {
    return Status(StatusCode::kInvalidArgument,
                  "fetch-subset serves .kdp packages only: " +
                      request.artifact);
  }
  KONDO_ASSIGN_OR_RETURN(const std::string path, ResolvePath(request.artifact));
  KONDO_ASSIGN_OR_RETURN(const ShardArtifactInfo info, HashFileArtifact(path));

  // Serve straight from the chunked package, decoding only the chunks the
  // range touches. The key carries the pack fingerprint (manifest CRC) on
  // top of the whole-file hash, so a repacked package can never resolve to
  // slices of its predecessor.
  KONDO_ASSIGN_OR_RETURN(std::shared_ptr<PackReader> reader,
                         OpenPack(request.artifact, path, info));
  const SubsetKey key{request.artifact, info.lineage_bytes, info.lineage_crc,
                      request.begin,    request.end,
                      reader->pack_fingerprint()};
  {
    // A request for a slice another request is loading waits for that load
    // and then hits, so concurrent first requests for a slice load it once.
    // Loads of different slices run in parallel.
    MutexLock lock(fill_mu_);
    while (loading_.count(key) != 0) {
      loaded_.Wait(fill_mu_);
    }
    if (std::shared_ptr<const std::string> cached = cache_.Get(key)) {
      return cached;
    }
    loading_.insert(key);
  }
  StatusOr<std::shared_ptr<const std::string>> payload =
      LoadSlice(request, info, *reader, key);
  {
    MutexLock lock(fill_mu_);
    loading_.erase(key);
  }
  loaded_.NotifyAll();
  return payload;
}

StatusOr<std::shared_ptr<const std::string>> ArtifactPool::LoadSlice(
    const FetchSubsetRequest& request, const ShardArtifactInfo& info,
    PackReader& reader, const SubsetKey& key) {
  // Miss: anything cached under an older fingerprint of this artifact is
  // dead weight now — sweep it rather than waiting for LRU pressure.
  cache_.EvictStale(request.artifact, info.lineage_bytes, info.lineage_crc);

  if (request.end > reader.shape().NumElements()) {
    return Status(StatusCode::kOutOfRange,
                  "range end " + std::to_string(request.end) +
                      " exceeds element count " +
                      std::to_string(reader.shape().NumElements()));
  }
  FetchSubsetResponse response;
  response.fingerprint_bytes = info.lineage_bytes;
  response.fingerprint_crc = info.lineage_crc;
  response.begin = request.begin;
  response.end = request.end;
  KONDO_RETURN_IF_ERROR(reader.ReadRange(request.begin, request.end,
                                         &response.present,
                                         &response.values));
  return cache_.Put(key, response.Encode());
}

StatusOr<std::shared_ptr<ProvenanceStore>> ArtifactPool::OpenStore(
    const std::string& name) {
  KONDO_ASSIGN_OR_RETURN(const std::string path, ResolvePath(name));
  KONDO_ASSIGN_OR_RETURN(const ShardArtifactInfo info, HashFileArtifact(path));

  MutexLock lock(stores_mu_);
  auto it = stores_.find(name);
  if (it != stores_.end()) {
    if (it->second.fingerprint_bytes == info.lineage_bytes &&
        it->second.fingerprint_crc == info.lineage_crc) {
      return it->second.handle;
    }
    // The pool file changed underneath the open handle: its decode memo
    // and cached descriptors describe bytes that no longer exist.
    stores_.erase(it);
    ++stores_reopened_;
  }
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<ProvenanceStore> opened,
                         ProvenanceStore::Open(path));
  OpenStoreEntry entry;
  entry.fingerprint_bytes = info.lineage_bytes;
  entry.fingerprint_crc = info.lineage_crc;
  entry.handle = std::shared_ptr<ProvenanceStore>(std::move(opened));
  auto handle = entry.handle;
  stores_[name] = std::move(entry);
  return handle;
}

StatusOr<std::shared_ptr<PackReader>> ArtifactPool::OpenPack(
    const std::string& name, const std::string& path,
    const ShardArtifactInfo& info) {
  MutexLock lock(packs_mu_);
  auto it = packs_.find(name);
  if (it != packs_.end()) {
    if (it->second.fingerprint_bytes == info.lineage_bytes &&
        it->second.fingerprint_crc == info.lineage_crc) {
      return it->second.handle;
    }
    // Repacked (or rewritten) underneath the open handle: its manifest and
    // decoded-chunk cache describe bytes that no longer exist.
    packs_.erase(it);
    ++packs_reopened_;
  }
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<PackReader> opened,
                         PackReader::Open(path));
  OpenPackEntry entry;
  entry.fingerprint_bytes = info.lineage_bytes;
  entry.fingerprint_crc = info.lineage_crc;
  entry.handle = std::shared_ptr<PackReader>(std::move(opened));
  auto handle = entry.handle;
  packs_[name] = std::move(entry);
  return handle;
}

int64_t ArtifactPool::stores_open() const {
  MutexLock lock(stores_mu_);
  return static_cast<int64_t>(stores_.size());
}

int64_t ArtifactPool::stores_reopened() const {
  MutexLock lock(stores_mu_);
  return stores_reopened_;
}

int64_t ArtifactPool::packs_open() const {
  MutexLock lock(packs_mu_);
  return static_cast<int64_t>(packs_.size());
}

int64_t ArtifactPool::packs_reopened() const {
  MutexLock lock(packs_mu_);
  return packs_reopened_;
}

}  // namespace kondo
