#ifndef KONDO_SHARD_SHARD_SCHEDULER_H_
#define KONDO_SHARD_SHARD_SCHEDULER_H_

#include <cstdint>
#include <functional>
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
  /// per-shard KEL2 + KSS, merged store). nullptr = the real filesystem.
  /// All artefacts commit via tmp + fsync + rename, so a crash at any
  /// point leaves either the previous file or nothing — never a torn
  /// artefact — and a later invocation resumes from the manifest.
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
/// DispatchShards runs the `pending` shards and records each in `results`
/// and `manifest`; Finish() merges. With an empty `dir` the campaign lives
/// in memory: a fresh all-pending manifest, nothing on disk.
struct CampaignDirectory {
  std::string dir;
  Env* env = nullptr;
  ShardPlan plan;
  ShardManifest manifest;
  /// One per shard. Open() fills every fuzzed shard; DispatchShards fills
  /// the shards it runs.
  std::vector<ShardCampaignResult> results;
  /// Shards still to fuzz, ascending.
  std::vector<int> pending;

  /// Plans `shards` shards over `program`'s files (steered by `weights`)
  /// and loads `dir`'s manifest through `env`, rejecting one that
  /// describes another plan or seed. A fresh campaign writes nothing: the
  /// first SaveManifest creates `dir` and the manifest. Every shard the manifest calls fuzzed is re-verified (KSS checksum
  /// plus the KEL2 fingerprint recorded in it) and loaded; a damaged one
  /// is demoted to pending, with its dispatch count reset (its last
  /// dispatch committed), and re-run instead of poisoning the merge.
  static StatusOr<CampaignDirectory> Open(const MultiFileProgram& program,
                                          uint64_t rng_seed, int shards,
                                          const PlanWeights& weights,
                                          const std::string& dir, Env* env);

  bool persistent() const { return !dir.empty(); }

  /// `dir`/`name`.
  std::string PathOf(const std::string& name) const;

  /// Creates `dir` if needed and commits the manifest atomically through
  /// `env`; a no-op in memory.
  Status SaveManifest() const;

  /// Paced invocation (some shard still pending): reports progress only.
  /// Otherwise merges the campaign (MergeShardCampaigns), merges the
  /// per-shard lineage stores into merged.kel2, and records the manifest
  /// as merged.
  StatusOr<ShardedRunResult> Finish(const KondoConfig& config,
                                    int shards_fuzzed_now);
};

/// Dispatches one shard may use before it fails the campaign. A shard that
/// keeps failing its runners (dispatched this many times without a commit)
/// stops the campaign instead of looping forever; the manifest's `W` lines
/// carry the count across invocations.
inline constexpr int kMaxShardDispatches = 3;

/// One failure domain that runs shards: the local thread pool, or one
/// handshaken fleet worker link. It runs up to `slots` shards at once.
struct ShardRunner {
  /// Names the runner in log lines ("fleet worker unix:w0.sock").
  std::string name;
  int slots = 1;
  /// Runs shard `s` and returns its result once the shard's artefacts are
  /// durable (in a persistent campaign). Called from `slots` threads at
  /// once, never twice for the same shard concurrently.
  std::function<StatusOr<ShardCampaignResult>(int s)> run;
};

/// Runs every shard in `campaign.pending` over `runners`, one thread per
/// slot. Each slot repeats one rule until no shard is left:
///
///  1. pop a shard; fail the campaign (kInternal) if the shard has already
///     been dispatched kMaxShardDispatches times;
///  2. count the dispatch in the manifest's `W` line and save the manifest;
///  3. run the shard; on success record its result, mark it fuzzed and
///     save the manifest — each shard commits as soon as it finishes;
///  4. on failure requeue the shard and retire the runner with all its
///     slots: in-flight siblings finish and commit, then stop.
///
/// When every runner is retired with shards still queued, the campaign
/// fails with the last failure's status code and message. Returns the
/// number of shards committed. A failed save fails the campaign; progress
/// committed before it stays in the manifest.
StatusOr<int> DispatchShards(CampaignDirectory& campaign,
                             const std::vector<ShardRunner>& runners);

/// Plans shards, runs one full fuzz campaign per shard, and merges.
///
/// Scheduling: the campaign is one local ShardRunner — one failure domain,
/// so the first failed shard fails the campaign — with
/// `min(ClampJobs(config.jobs), pending)` slots driven by DispatchShards.
/// All slots share ONE ThreadPool of `ClampJobs(config.jobs)` workers:
/// each slot thread holds a non-owning CampaignExecutor over the shared
/// pool and blocks on its batches outside the pool, so debloat tests from
/// every shard interleave freely on the workers and the machine is never
/// oversubscribed beyond `jobs` (plus the slot threads, which are idle
/// while tests run). With `jobs == 1` there is one slot and no pool: its
/// executor runs every test inline on the slot thread.
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
