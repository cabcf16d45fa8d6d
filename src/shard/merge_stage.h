#ifndef KONDO_SHARD_MERGE_STAGE_H_
#define KONDO_SHARD_MERGE_STAGE_H_

#include <string>
#include <vector>

#include "array/index_set.h"
#include "carve/carver.h"
#include "common/statusor.h"
#include "core/kondo.h"
#include "exec/campaign_executor.h"
#include "provenance/kel2_writer.h"
#include "shard/shard_campaign.h"
#include "shard/shard_plan.h"

namespace kondo {

/// The deterministic fold of a sharded campaign: the multi-file pipeline's
/// output (one fuzz campaign over Θ, one carved subset per file).
struct MergedCampaign {
  FuzzStats fuzz_stats;
  /// The (shard-invariant) seed scatter, taken from shard 0's replay.
  std::vector<Seed> seeds;
  /// Raw fuzz-discovered index subsets, one per file.
  std::vector<IndexSet> per_file_discovered;
  /// Carved + rasterised approximations `I'_Θ`, one per file.
  std::vector<IndexSet> per_file_approx;
  std::vector<CarveStats> per_file_carve_stats;
};

/// Folds per-shard campaign results into the unsharded result:
///  * verifies the replicated schedules agreed — every deterministic
///    FuzzStats field must be identical across shards (divergence is an
///    internal error: the shards did not replay the same campaign);
///    `elapsed_seconds` is folded as the max;
///  * unions the slice-restricted per-file index sets (an exact partition,
///    so the union is the unsharded discovery set);
///  * carves each file — serially over files, but with every merge
///    round's CLOSE-pair scan parallelised over `executor` — and
///    rasterises each file's hulls in parallel (never nesting ParallelFor
///    inside a pool task).
/// The output is bit-identical at every shard and jobs setting.
StatusOr<MergedCampaign> MergeShardCampaigns(
    const ShardPlan& plan,
    const std::vector<ShardCampaignResult>& shard_results,
    const KondoConfig& config, CampaignExecutor& executor);

/// Decodes every per-shard KEL2 store, regroups events into per-run
/// (pid ascending), per-file (file_id ascending) coalesced byte ranges,
/// and re-encodes them through one CampaignLineageSink at `merged_path`.
/// Both the reads and the commit go through `options.env`.
/// Because the canonical encoding is a pure function of the merged ranges
/// — and re-coalescing joins ranges that a chunk-range slice boundary had
/// split — the merged store's bytes are identical for every shard count.
Status MergeShardLineageStores(const std::vector<std::string>& shard_paths,
                               const std::string& merged_path,
                               Kel2WriterOptions options = {});

}  // namespace kondo

#endif  // KONDO_SHARD_MERGE_STAGE_H_
