#ifndef KONDO_SHARD_SHARD_SCHEDULER_H_
#define KONDO_SHARD_SHARD_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/statusor.h"
#include "core/kondo.h"
#include "shard/merge_stage.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"
#include "shard/shard_plan.h"
#include "workloads/multi_file_program.h"

namespace kondo {

/// How RunShardedCampaign partitions, persists, and paces a campaign.
struct ShardOptions {
  /// Requested shard count (the planner may return fewer on tiny arrays).
  int shards = 1;

  /// Campaign directory for the manifest, per-shard KEL2 stores, per-shard
  /// state files, and the merged store. Empty runs the campaign entirely
  /// in memory: no lineage, no manifest, no resume.
  std::string output_dir;

  /// Upper bound on shards fuzzed by *this* invocation (0 = all remaining).
  /// With a campaign directory, a later invocation picks up the pending
  /// shards from the manifest and merges once every shard is fuzzed.
  int max_shards_this_run = 0;

  /// Access-density weights steering the planner (empty = element-count
  /// balancing). A resumed campaign must pass the same weights: the
  /// manifest records the resulting slices and CheckManifestMatchesPlan
  /// rejects a plan whose boundaries moved.
  PlanWeights plan_weights;

  /// Filesystem used for every artefact the scheduler commits (manifest,
  /// per-shard KEL2 + KSS, merged store). nullptr = the real filesystem;
  /// tests inject a FaultInjectingEnv here to simulate crashes and ENOSPC
  /// at any write. All artefacts commit via tmp + fsync + rename, so a
  /// crash at any point leaves either the previous file or nothing — never
  /// a torn artefact — and a later invocation resumes from the manifest.
  Env* env = nullptr;
};

/// Outcome of one scheduler invocation.
struct ShardedRunResult {
  /// Valid only when `complete`: the merged campaign, bit-identical at
  /// every shard, jobs and worker count.
  MergedCampaign merged;
  bool complete = false;
  int shards_fuzzed_now = 0;  // Shards campaigned by this invocation.
  int shards_total = 0;
  /// Path of the merged KEL2 store ("" in in-memory mode).
  std::string merged_lineage_path;
};

/// One invocation's view of a campaign directory — the lifecycle the local
/// scheduler and the fleet coordinator share. Open() plans the shards,
/// loads or creates the manifest, and re-verifies every fuzzed shard;
/// the caller runs `pending` shards, records each in `results` and
/// `manifest`, and calls Finish(). With an empty `dir` the campaign lives
/// in memory: a fresh all-pending manifest, nothing on disk.
struct CampaignDirectory {
  std::string dir;
  Env* env = nullptr;
  ShardPlan plan;
  ShardManifest manifest;
  /// One per shard. Open() fills every fuzzed shard; the caller fills the
  /// shards it runs.
  std::vector<ShardCampaignResult> results;
  /// Shards still to fuzz, ascending.
  std::vector<int> pending;

  /// Plans `shards` shards over `program`'s files (steered by `weights`),
  /// creates `dir`, and loads its manifest through `env` — creating it
  /// when missing, rejecting one that describes another plan or seed.
  /// Every shard the manifest calls fuzzed is re-verified (KSS checksum
  /// plus the KEL2 fingerprint recorded in it) and loaded; a damaged one
  /// is demoted to pending and re-run instead of poisoning the merge.
  static StatusOr<CampaignDirectory> Open(const MultiFileProgram& program,
                                          uint64_t rng_seed, int shards,
                                          const PlanWeights& weights,
                                          const std::string& dir, Env* env);

  bool persistent() const { return !dir.empty(); }

  /// `dir`/`name`.
  std::string PathOf(const std::string& name) const;

  /// Commits the manifest atomically through `env`; a no-op in memory.
  Status SaveManifest() const;

  /// Paced invocation (some shard still pending): reports progress only.
  /// Otherwise merges the campaign (MergeShardCampaigns), merges the
  /// per-shard lineage stores into merged.kel2, and records the manifest
  /// as merged.
  StatusOr<ShardedRunResult> Finish(const KondoConfig& config,
                                    int shards_fuzzed_now);
};

/// Plans shards, runs one full fuzz campaign per shard, and merges.
///
/// Scheduling: all shard campaigns share ONE ThreadPool of
/// `ClampJobs(config.jobs)` workers. Each running shard is driven by a
/// dedicated driver thread holding a non-owning CampaignExecutor over the
/// shared pool — drivers block on their batches outside the pool, so
/// debloat tests from every shard interleave freely on the workers and the
/// machine is never oversubscribed beyond `jobs` (plus the coordinating
/// drivers, which are idle while tests run). With `jobs == 1` the shards
/// simply run back-to-back on the calling thread.
///
/// Every shard replays the identical schedule (see RunShardCampaign), so
/// the merged result — index sets, carve stats, fuzz statistics, and the
/// merged lineage store — is bit-identical to `shards = 1` at every jobs
/// setting.
StatusOr<ShardedRunResult> RunShardedCampaign(const MultiFileProgram& program,
                                              const KondoConfig& config,
                                              const ShardOptions& options);

/// mkdir -p: creates `path` and any missing parents. The scheduler calls
/// this for its campaign directory; exposed for callers (the CLI) that
/// write sibling artefacts into the same tree.
Status EnsureCampaignDirectory(const std::string& path);

}  // namespace kondo

#endif  // KONDO_SHARD_SHARD_SCHEDULER_H_
