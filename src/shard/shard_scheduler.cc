#include "shard/shard_scheduler.h"

#include <sys/stat.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"

namespace kondo {
namespace {

/// Loads shard `s`'s sealed artefacts from `campaign`'s directory and
/// re-verifies them: the KSS checksum trailer plus the KEL2 store's
/// whole-file byte/CRC fingerprint against the KSS `A` line. A non-OK
/// status describes the damage.
StatusOr<ShardCampaignResult> LoadVerifiedShard(
    const CampaignDirectory& campaign, int s) {
  ShardArtifactInfo expected;
  KONDO_ASSIGN_OR_RETURN(
      ShardCampaignResult loaded,
      LoadShardState(campaign.PathOf(ShardStateFileName(s)), s,
                     campaign.plan.file_shapes, &expected, campaign.env));
  if (expected.lineage_bytes >= 0) {
    KONDO_ASSIGN_OR_RETURN(
        ShardArtifactInfo actual,
        HashFileArtifact(campaign.PathOf(ShardLineageFileName(s)),
                         campaign.env));
    if (actual.lineage_bytes != expected.lineage_bytes ||
        actual.lineage_crc != expected.lineage_crc) {
      return DataLossError(
          StrCat("shard ", s,
                 " lineage store does not match the fingerprint recorded "
                 "in its state file"));
    }
  }
  return loaded;
}

/// Shared state of one DispatchShards call. Slot threads pop shards from
/// `queue`, mirror every transition into the campaign manifest, and wake
/// each other through `cv`: a failed slot requeues its shard, so a waiting
/// slot always sees new work, a drained campaign, or its runner retired.
struct DispatchState {
  Mutex mu;
  CondVar cv;
  std::deque<int> queue KONDO_GUARDED_BY(mu);
  std::vector<uint8_t> retired KONDO_GUARDED_BY(mu);  // One per runner.
  int in_flight KONDO_GUARDED_BY(mu) = 0;
  int committed KONDO_GUARDED_BY(mu) = 0;
  Status fatal KONDO_GUARDED_BY(mu);
  Status last_failure KONDO_GUARDED_BY(mu) =
      FailedPreconditionError("no shard runner has a slot");
};

/// One slot of runner `r`: runs shards until the queue drains, the runner
/// is retired, or the campaign fails.
void RunSlot(CampaignDirectory& campaign, const ShardRunner& runner,
             size_t r, DispatchState& state) {
  while (true) {
    int s = -1;
    {
      MutexLock lock(state.mu);
      while (state.queue.empty() && state.in_flight > 0 &&
             state.fatal.ok() && state.retired[r] == 0) {
        state.cv.Wait(state.mu);
      }
      if (!state.fatal.ok() || state.retired[r] != 0 ||
          state.queue.empty()) {
        return;
      }
      s = state.queue.front();
      state.queue.pop_front();
      int& dispatches =
          campaign.manifest.dispatch_counts[static_cast<size_t>(s)];
      if (dispatches >= kMaxShardDispatches) {
        state.fatal = InternalError(
            StrCat("shard ", s, " exhausted its dispatch budget (",
                   dispatches, " dispatches)"));
      } else {
        ++dispatches;
        state.fatal = campaign.SaveManifest();
      }
      if (!state.fatal.ok()) {
        state.cv.NotifyAll();
        return;
      }
      ++state.in_flight;
    }

    StatusOr<ShardCampaignResult> run = runner.run(s);

    MutexLock lock(state.mu);
    --state.in_flight;
    if (!run.ok()) {
      // A crash, I/O error, straggler timeout or torn stream: requeue the
      // shard for a surviving runner and retire this one — exactly how
      // resume demotes a damaged shard.
      KONDO_LOG(Warning) << runner.name << " lost on shard " << s << ": "
                         << run.status();
      state.last_failure = run.status();
      state.queue.push_back(s);
      state.retired[r] = 1;
      state.cv.NotifyAll();
      return;
    }
    campaign.results[static_cast<size_t>(s)] = std::move(*run);
    campaign.manifest.statuses[static_cast<size_t>(s)] = ShardStatus::kFuzzed;
    ++state.committed;
    const Status saved = campaign.SaveManifest();
    if (!saved.ok() && state.fatal.ok()) {
      state.fatal = saved;
    }
    state.cv.NotifyAll();
  }
}

}  // namespace

Status EnsureCampaignDirectory(const std::string& path) {
  Env* env = Env::Default();
  std::string prefix;
  for (const std::string& piece : StrSplit(path, '/')) {
    prefix += piece;
    if (!prefix.empty() && env->GetFileKind(prefix) == FileKind::kMissing &&
        ::mkdir(prefix.c_str(), 0755) != 0 &&
        env->GetFileKind(prefix) == FileKind::kMissing) {
      return InternalError("cannot create campaign directory: " + prefix);
    }
    prefix += '/';
  }
  return OkStatus();
}

StatusOr<CampaignDirectory> CampaignDirectory::Open(
    const MultiFileProgram& program, uint64_t rng_seed, int shards,
    const PlanWeights& weights, const std::string& dir, Env* env) {
  CampaignDirectory c;
  c.dir = dir;
  c.env = env != nullptr ? env : Env::Default();
  std::vector<Shape> file_shapes;
  file_shapes.reserve(static_cast<size_t>(program.num_files()));
  for (int f = 0; f < program.num_files(); ++f) {
    file_shapes.push_back(program.file_shape(f));
  }
  KONDO_ASSIGN_OR_RETURN(c.plan, PlanShards(file_shapes, shards, weights));
  c.manifest = MakeShardManifest(c.plan, rng_seed);
  c.results.resize(static_cast<size_t>(c.plan.num_shards()));

  // A fresh campaign writes nothing here: DispatchShards' first manifest
  // save creates the directory, so a campaign that fails to start (a fleet
  // whose every handshake fails) leaves nothing behind.
  const std::string manifest_path = c.PathOf(kShardManifestFileName);
  if (c.persistent() &&
      c.env->GetFileKind(manifest_path) != FileKind::kMissing) {
    KONDO_ASSIGN_OR_RETURN(c.manifest,
                           LoadShardManifest(manifest_path, c.env));
    KONDO_RETURN_IF_ERROR(
        CheckManifestMatchesPlan(c.manifest, c.plan, rng_seed));

    // A manifest may claim a shard is fuzzed while its artefacts are
    // damaged (commits are atomic, so a crash cannot tear them — but
    // operators truncate disks and flip bits). Re-verify every fuzzed
    // shard before trusting it; a damaged one is demoted to pending and
    // re-run, the same rule the fleet applies to a lost worker.
    bool demoted = false;
    for (int s = 0; s < c.manifest.num_shards(); ++s) {
      ShardStatus& status = c.manifest.statuses[static_cast<size_t>(s)];
      if (status != ShardStatus::kFuzzed) {
        continue;
      }
      StatusOr<ShardCampaignResult> loaded = LoadVerifiedShard(c, s);
      if (!loaded.ok()) {
        KONDO_LOG(Warning) << "shard " << s
                           << " failed resume verification, re-running: "
                           << loaded.status();
        status = ShardStatus::kPending;
        c.manifest.dispatch_counts[static_cast<size_t>(s)] = 0;
        c.manifest.merged = false;
        demoted = true;
        continue;
      }
      c.results[static_cast<size_t>(s)] = std::move(*loaded);
    }
    if (demoted) {
      KONDO_RETURN_IF_ERROR(c.SaveManifest());
    }
  }

  for (int s = 0; s < c.manifest.num_shards(); ++s) {
    if (c.manifest.statuses[static_cast<size_t>(s)] == ShardStatus::kPending) {
      c.pending.push_back(s);
    }
  }
  return c;
}

std::string CampaignDirectory::PathOf(const std::string& name) const {
  return dir + "/" + name;
}

Status CampaignDirectory::SaveManifest() const {
  if (!persistent()) {
    return OkStatus();
  }
  KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(dir));
  return SaveShardManifest(PathOf(kShardManifestFileName), manifest, env);
}

StatusOr<ShardedRunResult> CampaignDirectory::Finish(const KondoConfig& config,
                                                     int shards_fuzzed_now) {
  ShardedRunResult out;
  out.shards_total = plan.num_shards();
  out.shards_fuzzed_now = shards_fuzzed_now;
  if (!manifest.AllFuzzed()) {
    return out;  // Paced invocation: more shards remain for a later run.
  }

  // Every shard's result is in memory: Open() loaded the ones fuzzed by
  // earlier invocations, and the caller recorded the ones it ran.
  CampaignExecutor merge_executor(ClampJobs(config.jobs));
  KONDO_ASSIGN_OR_RETURN(
      out.merged, MergeShardCampaigns(plan, results, config, merge_executor));
  if (persistent()) {
    std::vector<std::string> shard_paths;
    shard_paths.reserve(static_cast<size_t>(plan.num_shards()));
    for (int s = 0; s < plan.num_shards(); ++s) {
      shard_paths.push_back(PathOf(ShardLineageFileName(s)));
    }
    out.merged_lineage_path = PathOf(kMergedLineageFileName);
    Kel2WriterOptions merge_options;
    merge_options.env = env;
    KONDO_RETURN_IF_ERROR(MergeShardLineageStores(
        shard_paths, out.merged_lineage_path, merge_options));
    manifest.merged = true;
    KONDO_RETURN_IF_ERROR(SaveManifest());
  }
  out.complete = true;
  return out;
}

StatusOr<int> DispatchShards(CampaignDirectory& campaign,
                             const std::vector<ShardRunner>& runners) {
  DispatchState state;
  {
    MutexLock lock(state.mu);
    state.queue.assign(campaign.pending.begin(), campaign.pending.end());
    state.retired.assign(runners.size(), 0);
  }
  std::vector<std::thread> slots;
  for (size_t r = 0; r < runners.size(); ++r) {
    for (int slot = 0; slot < runners[r].slots; ++slot) {
      slots.emplace_back(RunSlot, std::ref(campaign), std::cref(runners[r]),
                         r, std::ref(state));
    }
  }
  for (std::thread& slot : slots) {
    slot.join();
  }

  MutexLock lock(state.mu);
  KONDO_RETURN_IF_ERROR(state.fatal);
  if (!state.queue.empty()) {
    return Status(state.last_failure.code(),
                  StrCat(state.queue.size(),
                         " shard(s) still pending and no shard runner is "
                         "left: ",
                         state.last_failure.message()));
  }
  return state.committed;
}

StatusOr<ShardedRunResult> RunShardedCampaign(const MultiFileProgram& program,
                                              const KondoConfig& config,
                                              const ShardOptions& options) {
  KONDO_ASSIGN_OR_RETURN(
      CampaignDirectory campaign,
      CampaignDirectory::Open(program, config.rng_seed, options.shards,
                              options.plan_weights, options.output_dir,
                              options.env));

  // Pacing only makes sense with a campaign directory to resume from; an
  // in-memory campaign always runs every shard.
  if (campaign.persistent() && options.max_shards_this_run > 0 &&
      static_cast<size_t>(options.max_shards_this_run) <
          campaign.pending.size()) {
    campaign.pending.resize(static_cast<size_t>(options.max_shards_this_run));
  }

  // One shared pool; one slot per running shard, capped at the pool width
  // (more slots than workers would only queue). Slots block on their
  // batches outside the pool, so every worker stays available for debloat
  // tests from any shard. At jobs 1 there is no pool: tests run inline.
  const int jobs = ClampJobs(config.jobs);
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1 && !campaign.pending.empty()) {
    pool = std::make_unique<ThreadPool>(jobs);
  }
  ShardRunner local;
  local.name = "local shard runner";
  local.slots = std::min(jobs, static_cast<int>(campaign.pending.size()));
  local.run = [&](int s) -> StatusOr<ShardCampaignResult> {
    CampaignExecutor executor(pool.get(), jobs);
    const Shard& shard = campaign.plan.shards[static_cast<size_t>(s)];
    if (!campaign.persistent()) {
      return RunShardCampaign(program, campaign.plan, shard, config,
                              executor);
    }
    // The shard's state (with the store's fingerprint) is committed last:
    // it only exists once every artefact it vouches for is durable.
    KONDO_ASSIGN_OR_RETURN(
        SealedShard sealed,
        RunSealedShard(program, campaign.plan, shard, config, executor,
                       campaign.PathOf(ShardLineageFileName(s)),
                       campaign.env));
    KONDO_RETURN_IF_ERROR(
        SaveShardState(campaign.PathOf(ShardStateFileName(s)), s,
                       sealed.result, sealed.info, campaign.env));
    return std::move(sealed.result);
  };
  KONDO_ASSIGN_OR_RETURN(const int fuzzed_now,
                         DispatchShards(campaign, {local}));
  return campaign.Finish(config, fuzzed_now);
}

}  // namespace kondo
