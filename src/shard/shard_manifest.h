#ifndef KONDO_SHARD_SHARD_MANIFEST_H_
#define KONDO_SHARD_SHARD_MANIFEST_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/statusor.h"
#include "shard/shard_plan.h"

namespace kondo {

/// Lifecycle of one shard inside a campaign directory.
enum class ShardStatus {
  kPending = 0,  // Not yet fuzzed (or fuzzing was interrupted).
  kFuzzed = 1,   // Campaign finished; lineage + state files are sealed.
};

/// The on-disk record (`manifest.ksm`) tying a sharded campaign directory
/// together: the plan that produced the shards, the campaign seed, each
/// shard's status, and whether the merged lineage store has been written.
/// Text format (see docs/FORMATS.md):
///
///   KSM1 <num_shards> <rng_seed> <num_files> <merged>
///   F <rank> <dim...>                 one line per file, in ordinal order
///   H <shard> <status>                one line per shard (0=pending 1=fuzzed)
///   L <shard> <file> <begin> <end>    one line per slice, in shard order
///   W <shard> <dispatches>            how often the shard has been
///                                     dispatched to a runner, local or
///                                     fleet (absent in pre-fleet
///                                     manifests; the loader defaults it
///                                     to zero)
///   C <crc32>                         checksum over every preceding byte
///
/// The manifest is committed atomically (tmp + fsync + rename) and the
/// trailer is re-verified on load, so a torn or corrupted manifest is
/// detected instead of silently steering a resume.
struct ShardManifest {
  uint64_t rng_seed = 0;
  std::vector<Shape> file_shapes;
  std::vector<Shard> shards;
  std::vector<ShardStatus> statuses;
  /// Times each shard was handed to a runner (DispatchShards), local or
  /// fleet. Crash and straggler re-dispatches increment it; the
  /// kMaxShardDispatches budget reads it across resumes.
  std::vector<int> dispatch_counts;
  bool merged = false;

  int num_shards() const { return static_cast<int>(shards.size()); }
  bool AllFuzzed() const;
};

/// Conventional artefact names inside a sharded campaign directory.
inline constexpr char kShardManifestFileName[] = "manifest.ksm";
inline constexpr char kMergedLineageFileName[] = "merged.kel2";

/// "shard-007.kel2": shard `shard`'s KEL2 lineage store.
std::string ShardLineageFileName(int shard);

/// "shard-007.kss": shard `shard`'s campaign state (resume artefact).
std::string ShardStateFileName(int shard);

/// Builds a fresh (all-pending) manifest from a plan and campaign seed.
ShardManifest MakeShardManifest(const ShardPlan& plan, uint64_t rng_seed);

/// Commits the manifest atomically through `env` (nullptr = real
/// filesystem): a crash mid-save leaves the previous manifest intact.
Status SaveShardManifest(const std::string& path,
                         const ShardManifest& manifest, Env* env = nullptr);

/// Loads (through `env`, nullptr = real filesystem) and CRC-verifies a
/// manifest; a missing or mismatching checksum trailer is kDataLoss.
StatusOr<ShardManifest> LoadShardManifest(const std::string& path,
                                          Env* env = nullptr);

/// Verifies a loaded manifest describes exactly `plan` under `rng_seed` —
/// the guard that keeps a resumed invocation from silently merging shards
/// of a different campaign into this one.
Status CheckManifestMatchesPlan(const ShardManifest& manifest,
                                const ShardPlan& plan, uint64_t rng_seed);

/// Checksum-trailer plumbing shared by the KSM and KSS text formats.
/// AppendChecksumTrailer appends a `C <crc32>` line covering every byte
/// already in `body`; StripChecksumTrailer verifies and removes it
/// (kDataLoss when missing or mismatching; the message starts with `what`,
/// the format's name, and ends with `path`).
void AppendChecksumTrailer(std::string* body);
Status StripChecksumTrailer(const std::string& what, const std::string& path,
                            std::string* content);

/// The `F <rank> <dim...>` file-shape line shared by the KSM and KSS text
/// formats. AppendShapeLine writes one; ParseShapeLine reads one (`line`
/// includes the `F` tag) through DecodeShape, so a hostile shape is
/// kDataLoss. `what` names the artefact in error messages.
void AppendShapeLine(const Shape& shape, std::ostream& out);
StatusOr<Shape> ParseShapeLine(const std::string& line,
                               const std::string& what);

}  // namespace kondo

#endif  // KONDO_SHARD_SHARD_MANIFEST_H_
