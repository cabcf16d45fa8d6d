#include "shard/shard_scheduler.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
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

  if (c.persistent()) {
    KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(dir));
    const std::string manifest_path = c.PathOf(kShardManifestFileName);
    if (c.env->GetFileKind(manifest_path) == FileKind::kMissing) {
      KONDO_RETURN_IF_ERROR(c.SaveManifest());
    } else {
      KONDO_ASSIGN_OR_RETURN(c.manifest,
                             LoadShardManifest(manifest_path, c.env));
      KONDO_RETURN_IF_ERROR(
          CheckManifestMatchesPlan(c.manifest, c.plan, rng_seed));
    }

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
  std::vector<int> to_run = campaign.pending;
  if (campaign.persistent() && options.max_shards_this_run > 0 &&
      static_cast<size_t>(options.max_shards_this_run) < to_run.size()) {
    to_run.resize(static_cast<size_t>(options.max_shards_this_run));
  }

  const int jobs = ClampJobs(config.jobs);
  std::vector<Status> run_statuses(to_run.size(), OkStatus());

  const auto run_one = [&](size_t slot, CampaignExecutor& executor) {
    const int s = to_run[slot];
    const Shard& shard = campaign.plan.shards[static_cast<size_t>(s)];
    ShardCampaignResult& result = campaign.results[static_cast<size_t>(s)];
    if (!campaign.persistent()) {
      StatusOr<ShardCampaignResult> run =
          RunShardCampaign(program, campaign.plan, shard, config, executor);
      if (run.ok()) {
        result = std::move(*run);
      }
      run_statuses[slot] = run.status();
      return;
    }
    // The shard's state (with the store's fingerprint) is committed last:
    // it only exists once every artefact it vouches for is durable.
    StatusOr<SealedShard> sealed = RunSealedShard(
        program, campaign.plan, shard, config, executor,
        campaign.PathOf(ShardLineageFileName(s)), campaign.env);
    Status status = sealed.status();
    if (status.ok()) {
      status = SaveShardState(campaign.PathOf(ShardStateFileName(s)), s,
                              sealed->result, sealed->info, campaign.env);
    }
    if (status.ok()) {
      result = std::move(sealed->result);
    }
    run_statuses[slot] = status;
  };

  if (jobs <= 1 || to_run.size() <= 1) {
    CampaignExecutor executor(jobs);
    for (size_t slot = 0; slot < to_run.size(); ++slot) {
      run_one(slot, executor);
    }
  } else {
    // One shared pool; one driver thread per running shard (capped at the
    // pool width — more drivers than workers would only queue). Drivers
    // are plain threads, NOT pool tasks: they block on their batches
    // outside the pool, so every worker stays available for debloat tests
    // from any shard.
    ThreadPool pool(jobs);
    const size_t drivers =
        std::min(to_run.size(), static_cast<size_t>(jobs));
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(drivers);
    for (size_t d = 0; d < drivers; ++d) {
      threads.emplace_back([&] {
        CampaignExecutor executor(&pool, jobs);
        for (size_t slot = next.fetch_add(1); slot < to_run.size();
             slot = next.fetch_add(1)) {
          run_one(slot, executor);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  for (const Status& status : run_statuses) {
    KONDO_RETURN_IF_ERROR(status);
  }

  for (int s : to_run) {
    campaign.manifest.statuses[static_cast<size_t>(s)] = ShardStatus::kFuzzed;
  }
  if (!to_run.empty()) {
    KONDO_RETURN_IF_ERROR(campaign.SaveManifest());
  }
  return campaign.Finish(config, static_cast<int>(to_run.size()));
}

}  // namespace kondo
