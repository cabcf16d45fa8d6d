#ifndef KONDO_SHARD_SHARD_CAMPAIGN_H_
#define KONDO_SHARD_SHARD_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/index_set.h"
#include "audit/auditor.h"
#include "common/env.h"
#include "common/statusor.h"
#include "core/kondo.h"
#include "exec/campaign_executor.h"
#include "fuzz/fuzz_schedule.h"
#include "shard/shard_plan.h"
#include "workloads/multi_file_program.h"

namespace kondo {

/// Bytes one array element occupies in the canonical lineage encoding: a
/// linear id `i` maps to the byte range [8i, 8i + 8) of its file. The
/// constant only names an encoding, not a real element width — per-shard
/// stores record *which* elements a run touched, and 8 bytes is the
/// paper's double-precision default.
inline constexpr int64_t kLineageElemBytes = 8;

/// Outcome of one shard's campaign: per-file index subsets restricted to
/// the shard's slices, plus the (shard-invariant) fuzz statistics and seed
/// scatter of the replicated schedule.
struct ShardCampaignResult {
  std::vector<IndexSet> per_file;
  std::vector<Seed> seeds;
  FuzzStats stats;
};

/// Runs shard `shard`'s full fuzz campaign over `executor`.
///
/// Every shard replays the *identical* schedule: candidates are generated
/// from the same campaign seed and progress/stopping decisions track the
/// combined accessed set over all files — so each shard makes exactly the
/// decisions the unsharded campaign makes, and the per-shard statistics and
/// consumed-candidate sequence are bit-identical across shards. What
/// differs is collection: a shard keeps only the index points falling
/// inside its slices, and persists lineage (through `persist`, when set)
/// only for its partition — the canonical per-run event logs described in
/// docs/FORMATS.md. The union of all shards therefore reproduces the
/// unsharded result exactly, at the cost of re-running the (cheap) tests
/// per shard — which is what lets shards proceed with no cross-shard
/// communication until the merge.
///
/// Returns non-OK only on infrastructure failure (the lineage persister
/// could not write); persistent debloat-test failures are quarantined in
/// the returned stats instead.
StatusOr<ShardCampaignResult> RunShardCampaign(
    const MultiFileProgram& program, const ShardPlan& plan,
    const Shard& shard, const KondoConfig& config, CampaignExecutor& executor,
    const AuditPersistFn& persist = {});

/// Folds a later run of the same campaign into `base`, the rule of
/// `kondo fuzz --resume`: seeds and quarantined points concatenate (earlier
/// run first; duplicates kept, they witness schedule behaviour), the
/// discovered ids union per file, and the other stats become `latest`'s.
/// Both sides must cover the same file shapes.
void ExtendCampaign(ShardCampaignResult* base, ShardCampaignResult latest);

/// Whole-file fingerprint of a sealed shard artefact (its KEL2 lineage
/// store), recorded in the shard's KSS so a resume can detect a
/// truncated or corrupted artefact — Kel2Reader alone silently drops a
/// torn tail, which is exactly the corruption a crash leaves behind.
struct ShardArtifactInfo {
  int64_t lineage_bytes = -1;  // -1 = no lineage store recorded.
  uint32_t lineage_crc = 0;
};

/// Reads `path` fully through `env` (nullptr = real filesystem) and
/// returns its byte count + CRC32 (kNotFound when missing).
StatusOr<ShardArtifactInfo> HashFileArtifact(const std::string& path,
                                             Env* env = nullptr);

/// One shard campaign sealed into its KEL2 lineage store.
struct SealedShard {
  ShardCampaignResult result;
  ShardArtifactInfo info;  // Fingerprint of `kel2`.
  std::string kel2;        // The sealed store's bytes.
};

/// Runs RunShardCampaign with its lineage persisted to a KEL2 store at
/// `lineage_path` (written through `env`), seals the store, and reads it
/// back once to fingerprint it. The caller commits the shard's state —
/// which vouches for the store — only after this returns OK. Both the
/// local scheduler and fleet workers run shards through this step.
StatusOr<SealedShard> RunSealedShard(const MultiFileProgram& program,
                                     const ShardPlan& plan, const Shard& shard,
                                     const KondoConfig& config,
                                     CampaignExecutor& executor,
                                     const std::string& lineage_path,
                                     Env* env);

/// Saves / loads a shard's campaign outcome (`shard-NNN.kss`) so a later
/// invocation can merge without re-fuzzing; `kondo fuzz --out` saves its
/// campaign as shard 0 of a one-file campaign. Text format
/// (docs/FORMATS.md):
///
///   KSS2 <shard> <num_files>
///   F <rank> <dim...>        one line per file, in ordinal order
///   T <iterations> <evaluations> <useful> <restarts> <epsilon> <elapsed>
///     <stopped_by_stagnation> <stopped_by_budget> <stopped_by_eval_budget>
///     <retries> <quarantined>
///   S <useful> <v...>        seeds, full double precision, consumption order
///   Q <v...>                 quarantined parameter points, in order
///   I <file> <linear>        discovered ids, per file, ascending
///   A <bytes> <crc32>        sealed lineage-store fingerprint (optional)
///   C <crc32>                checksum over every preceding byte
///
/// The state is committed atomically (tmp + fsync + rename) through `env`,
/// read back through `env`, and the checksum trailer is verified on load.
/// A state whose `F` lines differ from `file_shapes` was written for
/// another program: kFailedPrecondition, "does not match".
Status SaveShardState(const std::string& path, int shard,
                      const ShardCampaignResult& result,
                      const ShardArtifactInfo& info = {}, Env* env = nullptr);
StatusOr<ShardCampaignResult> LoadShardState(
    const std::string& path, int shard,
    const std::vector<Shape>& file_shapes,
    ShardArtifactInfo* info_out = nullptr, Env* env = nullptr);

/// The codec under Save/LoadShardState, exposed so fleet workers can
/// stream KSS bytes over the wire and the coordinator can verify them
/// before anything touches disk. EncodeShardState returns the complete
/// file image (trailer included); DecodeShardState checksum-verifies and
/// parses one (`source` names the artefact — a path or a peer — in error
/// messages).
std::string EncodeShardState(int shard, const ShardCampaignResult& result,
                             const ShardArtifactInfo& info = {});
StatusOr<ShardCampaignResult> DecodeShardState(
    std::string content, const std::string& source, int shard,
    const std::vector<Shape>& file_shapes,
    ShardArtifactInfo* info_out = nullptr);

}  // namespace kondo

#endif  // KONDO_SHARD_SHARD_CAMPAIGN_H_
