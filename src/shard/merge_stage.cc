#include "shard/merge_stage.h"

#include <algorithm>
#include <map>
#include <utility>

#include "audit/event_log.h"
#include "common/interval_set.h"
#include "common/strings.h"
#include "provenance/kel2_reader.h"
#include "provenance/persist.h"

namespace kondo {
namespace {

/// Returns an error naming the first deterministic FuzzStats field that
/// differs between shard 0 and shard `s`.
Status CheckStatsAgree(const FuzzStats& base, const FuzzStats& other,
                       int s) {
  const auto mismatch = [s](std::string_view field) {
    return InternalError(
        StrCat("replicated shard schedules diverged: shard ", s,
               " disagrees with shard 0 on ", field));
  };
  if (other.iterations != base.iterations) return mismatch("iterations");
  if (other.evaluations != base.evaluations) return mismatch("evaluations");
  if (other.useful_evaluations != base.useful_evaluations) {
    return mismatch("useful_evaluations");
  }
  if (other.restarts != base.restarts) return mismatch("restarts");
  if (other.final_epsilon != base.final_epsilon) {
    return mismatch("final_epsilon");
  }
  if (other.stopped_by_stagnation != base.stopped_by_stagnation ||
      other.stopped_by_budget != base.stopped_by_budget ||
      other.stopped_by_eval_budget != base.stopped_by_eval_budget) {
    return mismatch("stopping criterion");
  }
  if (other.retries != base.retries) return mismatch("retries");
  if (other.quarantined != base.quarantined) return mismatch("quarantined");
  if (other.quarantined_points != base.quarantined_points) {
    return mismatch("quarantined points");
  }
  return OkStatus();
}

}  // namespace

StatusOr<MergedCampaign> MergeShardCampaigns(
    const ShardPlan& plan,
    const std::vector<ShardCampaignResult>& shard_results,
    const KondoConfig& config, CampaignExecutor& executor) {
  if (shard_results.size() != static_cast<size_t>(plan.num_shards())) {
    return InvalidArgumentError(
        StrCat("merge expected ", plan.num_shards(), " shard results, got ",
               shard_results.size()));
  }

  MergedCampaign merged;
  merged.fuzz_stats = shard_results[0].stats;
  merged.seeds = shard_results[0].seeds;
  for (size_t s = 1; s < shard_results.size(); ++s) {
    KONDO_RETURN_IF_ERROR(CheckStatsAgree(shard_results[0].stats,
                                          shard_results[s].stats,
                                          static_cast<int>(s)));
    merged.fuzz_stats.elapsed_seconds =
        std::max(merged.fuzz_stats.elapsed_seconds,
                 shard_results[s].stats.elapsed_seconds);
  }

  const int files = plan.num_files();
  merged.per_file_discovered.reserve(static_cast<size_t>(files));
  for (int f = 0; f < files; ++f) {
    IndexSet set(plan.file_shapes[static_cast<size_t>(f)]);
    for (const ShardCampaignResult& result : shard_results) {
      set.Union(result.per_file[static_cast<size_t>(f)]);
    }
    merged.per_file_discovered.push_back(std::move(set));
  }

  // Carve the files one at a time, spending the workers *inside* each
  // file: its cell hulls are built over the pool (stored in cell order,
  // see Carver::Carve) and its hulls rasterised over the pool. Carving
  // files serially keeps every ParallelFor on the calling thread — a pool
  // task must never start a nested one — and cell builds and
  // rasterisation are most of carve time, so the workers stay busy even
  // on a single-file program.
  const Carver carver(config.carve);
  merged.per_file_approx.reserve(static_cast<size_t>(files));
  merged.per_file_carve_stats.reserve(static_cast<size_t>(files));
  for (int f = 0; f < files; ++f) {
    CarveStats stats;
    const CarvedSubset carved = carver.Carve(
        merged.per_file_discovered[static_cast<size_t>(f)], executor, &stats);
    merged.per_file_approx.push_back(Carver::Rasterize(carved, executor));
    merged.per_file_carve_stats.push_back(stats);
  }
  return merged;
}

Status MergeShardLineageStores(const std::vector<std::string>& shard_paths,
                               const std::string& merged_path,
                               Kel2WriterOptions options) {
  // Regroup every shard's events into per-run, per-file coalesced ranges.
  // Coalescing rejoins ranges split by chunk-slice boundaries, so the
  // grouped view — and hence the re-encoded store — is shard-count
  // invariant. Shards interleave their ranges, so each is built once.
  std::map<int64_t, std::map<int64_t, IntervalSet::Builder>> runs;
  for (const std::string& path : shard_paths) {
    KONDO_ASSIGN_OR_RETURN(std::vector<Event> events,
                           ReadLineageStore(path, options.env));
    for (const Event& event : events) {
      if (!event.IsDataAccess()) {
        continue;
      }
      runs[event.id.pid][event.id.file_id].Add(event.offset,
                                               event.offset + event.size);
    }
  }

  KONDO_ASSIGN_OR_RETURN(CampaignLineageSink sink,
                         CampaignLineageSink::Create(merged_path, options));
  const AuditPersistFn persist = sink.persister();
  for (auto& [pid, files] : runs) {
    EventLog log;
    for (auto& [file_id, builder] : files) {
      const IntervalSet ranges = builder.Build();
      for (const Interval& range : ranges.ToIntervals()) {
        Event event;
        event.id = EventId{pid, file_id};
        event.type = EventType::kPread;
        event.offset = range.begin;
        event.size = range.length();
        log.Record(event);
      }
    }
    KONDO_RETURN_IF_ERROR(persist(log));
  }
  return sink.Close();
}

}  // namespace kondo
