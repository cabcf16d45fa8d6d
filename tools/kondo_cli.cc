// kondo — command-line front end for the Kondo data-debloating library.
// Every command is one row of kCommands (bottom of the file); running
// `kondo` with no arguments prints the synopsis of each.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/kdf_file.h"
#include "core/container_spec.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "core/multi_kondo.h"
#include "core/remote_fetch.h"
#include "core/report.h"
#include "core/runtime.h"
#include "common/env.h"
#include "common/flag_parse.h"
#include "common/strings.h"
#include "exec/campaign_executor.h"
#include "exec/thread_pool.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fleet_worker.h"
#include "pack/kdp_format.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/persist.h"
#include "provenance/provenance_query.h"
#include "serve/blast.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/plan_weights.h"
#include "shard/shard_campaign.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo::cli {
namespace {

/// `--jobs N` (worker threads; default the hardware concurrency). Output
/// is bit-identical at every setting; only wall-clock time changes.
int JobsFlag(Args& args) {
  const int64_t jobs = args.PositiveInt("--jobs").value_or(HardwareThreads());
  return ClampJobs(static_cast<int>(std::min<int64_t>(jobs, 1 << 20)));
}

/// The campaign flags of debloat, evaluate and fuzz. A command reads the
/// ones it declares; the rest keep these defaults.
struct CampaignFlags {
  explicit CampaignFlags(Args& args)
      : seed(args.Uint64("--seed").value_or(1)),
        jobs(JobsFlag(args)),
        shards(static_cast<int>(std::min<int64_t>(
            args.PositiveInt("--shards").value_or(1), 1 << 20))),
        max_evals(args.PositiveInt("--max-evals").value_or(0)),
        max_iter(args.PositiveInt("--max-iter").value_or(0)) {}

  void ApplyTo(KondoConfig* config) const {
    config->rng_seed = seed;
    config->jobs = jobs;
    config->shards = shards;
    config->fuzz.max_evals = max_evals;
    if (max_iter > 0) {
      config->fuzz.max_iter = static_cast<int>(max_iter);
    }
  }

  uint64_t seed;      // Campaign seeds are never zero by default.
  int jobs;
  int shards;         // 1 = unsharded; the merged result is bit-identical.
  int64_t max_evals;  // Deterministic evaluation budget; 0 = unlimited.
  int64_t max_iter;   // Schedule iteration cap; 0 = the config default.
};

StatusOr<std::unique_ptr<Program>> FindProgram(const std::string& name) {
  std::unique_ptr<Program> program = CreateProgram(name);
  if (program == nullptr) {
    return NotFoundError(StrCat("unknown program: ", name));
  }
  return program;
}

/// Which stopping criterion ended a campaign, for run reports.
const char* StopReason(const FuzzStats& stats) {
  if (stats.stopped_by_eval_budget) {
    return "eval budget";
  }
  if (stats.stopped_by_budget) {
    return "time budget";
  }
  if (stats.stopped_by_stagnation) {
    return "stagnation";
  }
  return "max iterations";
}

/// Packs `array` to `path` and prints the summary every debloat shares:
/// what was kept, the package size against the dense original, and how the
/// chunks were coded.
Status WritePackage(const std::string& path, const DebloatedArray& array,
                    int jobs) {
  PackOptions options;
  options.jobs = jobs;
  KONDO_ASSIGN_OR_RETURN(const PackStats stats,
                         WriteKdpFile(path, array, options));
  const int64_t original = array.OriginalPayloadBytes();
  const double smaller = 100.0 * (1.0 - static_cast<double>(stats.file_bytes) /
                                            static_cast<double>(original));
  std::printf("wrote %s: %lld of %lld elements retained, %lld -> %lld "
              "bytes (%.1f%% smaller)\n",
              path.c_str(), static_cast<long long>(array.retained_count()),
              static_cast<long long>(array.shape().NumElements()),
              static_cast<long long>(original),
              static_cast<long long>(stats.file_bytes), smaller);
  std::printf("packed: %lld chunks (%lld holes, %lld coded, %lld raw), "
              "%lld -> %lld payload bytes\n",
              static_cast<long long>(stats.total_chunks),
              static_cast<long long>(stats.hole_chunks),
              static_cast<long long>(stats.coded_chunks),
              static_cast<long long>(stats.raw_chunks),
              static_cast<long long>(stats.decoded_bytes),
              static_cast<long long>(stats.encoded_bytes));
  return OkStatus();
}

Status CmdPrograms(Args& args) {
  KONDO_RETURN_IF_ERROR(args.Positionals(0).status());
  std::printf("%-7s %-8s %-12s %s\n", "name", "params", "data", "description");
  for (const std::string& name : AllProgramNames()) {
    const std::unique_ptr<Program> program = CreateProgram(name);
    std::printf("%-7s %-8d %-12s %s\n", name.c_str(),
                program->param_space().num_params(),
                program->data_shape().ToString().c_str(),
                std::string(program->description()).c_str());
  }
  std::printf("\nmulti-file programs (debloat/evaluate with --shards):\n");
  std::printf("%-8s %-8s %-6s %s\n", "name", "params", "files", "shapes");
  for (const std::string& name : AllMultiFileProgramNames()) {
    const std::unique_ptr<MultiFileProgram> program =
        CreateMultiFileProgram(name);
    std::string shapes;
    for (int f = 0; f < program->num_files(); ++f) {
      if (f > 0) {
        shapes += "  ";
      }
      shapes += std::string(program->file_name(f)) + ":" +
                program->file_shape(f).ToString();
    }
    std::printf("%-8s %-8d %-6d %s\n", name.c_str(),
                program->param_space().num_params(), program->num_files(),
                shapes.c_str());
  }
  return OkStatus();
}

Status CmdSpec(Args& args) {
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  std::string text;
  KONDO_RETURN_IF_ERROR(ReadFileToString(pos[0], &text));
  KONDO_ASSIGN_OR_RETURN(const ContainerSpec spec, ParseContainerSpec(text));
  std::printf("base image: %s\n", spec.base_image.c_str());
  std::printf("run steps:  %zu\n", spec.run_steps.size());
  for (const AddInstruction& add : spec.adds) {
    std::printf("add:        %s -> %s\n", add.source.c_str(),
                add.destination.c_str());
  }
  std::printf("theta:      %s\n", spec.params.ToString().c_str());
  std::printf("entrypoint: %s\n", spec.entrypoint.c_str());
  return OkStatus();
}

Status CmdMakeData(Args& args) {
  const bool chunked = args.Has("--chunked");
  const uint64_t seed = args.Uint64("--seed").value_or(1);
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(2));
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<Program> program,
                         FindProgram(pos[0]));
  DataArray array(program->data_shape(), DType::kFloat128);
  array.FillPattern(seed);
  std::vector<int64_t> chunk_dims(
      static_cast<size_t>(program->rank()),
      std::max<int64_t>(2, program->data_shape().dim(0) / 16));
  KONDO_RETURN_IF_ERROR(WriteKdfFile(
      pos[1], array, chunked ? LayoutKind::kChunked : LayoutKind::kRowMajor,
      chunk_dims));
  std::printf("wrote %s: shape %s, %s layout\n", pos[1].c_str(),
              program->data_shape().ToString().c_str(),
              chunked ? "chunked" : "row-major");
  return OkStatus();
}

/// Prints a KDP package's shape, retention, chunk coding and fingerprint.
Status InspectPackage(const std::string& path) {
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<PackReader> reader,
                         PackReader::Open(path));
  const KdpManifest& manifest = reader->manifest();
  int64_t holes = 0, raw = 0, coded = 0;
  int64_t encoded = 0, decoded = 0;
  for (const KdpChunkInfo& info : manifest.chunks) {
    switch (info.codec) {
      case KdpCodec::kHole:
        ++holes;
        break;
      case KdpCodec::kRaw:
        ++raw;
        break;
      default:
        ++coded;
        break;
    }
    encoded += info.encoded_bytes;
    decoded += info.decoded_bytes;
  }
  std::string chunk_dims;
  for (size_t d = 0; d < manifest.chunk_dims.size(); ++d) {
    if (d > 0) {
      chunk_dims += "x";
    }
    chunk_dims += std::to_string(manifest.chunk_dims[d]);
  }
  const int64_t elements = manifest.shape.NumElements();
  const int64_t retained = reader->retained_count();
  std::printf("debloated array (KDP v%d)\n", kKdpVersion);
  std::printf("shape:     %s\n", manifest.shape.ToString().c_str());
  std::printf("dtype:     %s\n",
              std::string(DTypeName(manifest.dtype)).c_str());
  std::printf("retained:  %lld of %lld elements (%.1f%%)\n",
              static_cast<long long>(retained),
              static_cast<long long>(elements),
              100.0 * static_cast<double>(retained) /
                  static_cast<double>(elements));
  std::printf("chunks:    %lld total (grid %s), %lld holes, %lld coded, "
              "%lld raw\n",
              static_cast<long long>(manifest.chunks.size()),
              chunk_dims.c_str(), static_cast<long long>(holes),
              static_cast<long long>(coded), static_cast<long long>(raw));
  std::printf("bytes:     %lld decoded -> %lld encoded, %lld on disk\n",
              static_cast<long long>(decoded),
              static_cast<long long>(encoded),
              static_cast<long long>(reader->FileBytes()));
  std::printf("fingerprint: %08x\n", reader->pack_fingerprint());
  return OkStatus();
}

Status CmdInspect(Args& args) {
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  const std::string& path = pos[0];
  if (path.size() > 4 && path.substr(path.size() - 4) == ".kdp") {
    return InspectPackage(path);
  }
  KONDO_ASSIGN_OR_RETURN(const KdfReader reader, KdfReader::Open(path));
  std::printf("data array (KDF)\n");
  std::printf("shape:   %s\n", reader.shape().ToString().c_str());
  std::printf("dtype:   %s\n",
              std::string(DTypeName(reader.header().dtype)).c_str());
  std::printf("layout:  %s\n",
              reader.header().layout_kind == LayoutKind::kChunked
                  ? "chunked"
                  : "row-major");
  std::printf("bytes:   %lld (header %lld + payload)\n",
              static_cast<long long>(reader.FileBytes()),
              static_cast<long long>(reader.payload_offset()));
  return OkStatus();
}

/// Fleet flags of `kondo debloat`: either spawn `--workers N` local worker
/// processes under the campaign directory, or attach to externally started
/// workers via repeatable `--connect ADDR`. `--plan-weights KEL2` steers
/// the planner from a prior campaign's lineage store and also applies to
/// purely local sharded runs.
struct FleetCliOptions {
  int spawn_workers = 0;
  std::vector<SocketAddress> connect;
  std::string plan_weights_path;

  bool active() const { return spawn_workers > 0 || !connect.empty(); }
};

/// Resolves `--plan-weights KEL2` into planner weights over `program`'s
/// file geometry (empty path = empty weights = element-count balancing).
StatusOr<PlanWeights> PlanWeightsFromCli(const std::string& path,
                                         const MultiFileProgram& program) {
  PlanWeights weights;
  if (path.empty()) {
    return weights;
  }
  std::vector<Shape> shapes;
  shapes.reserve(static_cast<size_t>(program.num_files()));
  for (int f = 0; f < program.num_files(); ++f) {
    shapes.push_back(program.file_shape(f));
  }
  return WeightsFromLineageStore(path, shapes);
}

/// A `kondo worker` child process this coordinator forked for
/// `debloat --workers N`.
struct SpawnedWorker {
  pid_t pid = -1;
  std::string socket_path;
};

/// Forks `count` local `kondo worker` processes (re-execing this binary),
/// one unix socket and one scratch subdirectory each under `dir`, and
/// waits until every socket file exists — the worker binds before
/// accepting, so the file's presence means the endpoint is connectable.
Status SpawnLocalWorkers(int count, int total_jobs, const std::string& dir,
                         std::vector<SpawnedWorker>* spawned,
                         std::vector<SocketAddress>* endpoints) {
  const int jobs_each = std::max(1, total_jobs / std::max(1, count));
  const std::string jobs_text = std::to_string(jobs_each);
  for (int i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "worker-%03d", i);
    const std::string socket_path = dir + "/" + name + ".sock";
    const std::string scratch = dir + "/" + name;
    std::remove(socket_path.c_str());
    const pid_t pid = ::fork();
    if (pid < 0) {
      return InternalError("fork failed spawning fleet workers");
    }
    if (pid == 0) {
      const char* child_args[] = {
          "kondo",     "worker", "--socket", socket_path.c_str(),
          "--scratch", scratch.c_str(),      "--jobs",   jobs_text.c_str(),
          nullptr};
      ::execv("/proc/self/exe", const_cast<char* const*>(child_args));
      std::_Exit(127);  // exec failed; the bind-wait below reports it.
    }
    SpawnedWorker worker;
    worker.pid = pid;
    worker.socket_path = socket_path;
    spawned->push_back(worker);
    SocketAddress address;
    address.unix_path = socket_path;
    endpoints->push_back(address);
  }
  for (const SpawnedWorker& worker : *spawned) {
    for (int tries = 0;; ++tries) {
      if (Env::Default()->GetFileKind(worker.socket_path) !=
          FileKind::kMissing) {
        break;
      }
      if (tries >= 1000) {
        return InternalError(StrCat("spawned fleet worker never bound ",
                                    worker.socket_path));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return OkStatus();
}

/// Terminates and reaps every spawned worker; leftover socket files are
/// removed so a rerun starts clean.
void StopLocalWorkers(const std::vector<SpawnedWorker>& spawned) {
  for (const SpawnedWorker& worker : spawned) {
    if (worker.pid > 0) {
      ::kill(worker.pid, SIGTERM);
    }
  }
  for (const SpawnedWorker& worker : spawned) {
    if (worker.pid > 0) {
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
    }
    std::remove(worker.socket_path.c_str());
  }
}

/// Runs the sharded campaign for `kondo debloat`: locally when no fleet
/// flags are present, otherwise over spawned or attached workers. Weights
/// from `--plan-weights` steer the planner on both paths.
StatusOr<ShardedRunResult> RunShardedFromCli(const MultiFileProgram& program,
                                             const KondoConfig& config,
                                             const std::string& shard_dir,
                                             int shards,
                                             const FleetCliOptions& fleet) {
  KONDO_ASSIGN_OR_RETURN(
      PlanWeights weights,
      PlanWeightsFromCli(fleet.plan_weights_path, program));
  if (!fleet.active()) {
    ShardOptions options;
    options.shards = shards;
    options.output_dir = shard_dir;
    options.plan_weights = std::move(weights);
    return RunShardedCampaign(program, config, options);
  }
  FleetOptions options;
  options.shards = shards;
  options.output_dir = shard_dir;
  options.plan_weights = std::move(weights);
  std::vector<SpawnedWorker> spawned;
  if (fleet.spawn_workers > 0) {
    KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(shard_dir));
    const Status up = SpawnLocalWorkers(fleet.spawn_workers, config.jobs,
                                        shard_dir, &spawned, &options.workers);
    if (!up.ok()) {
      StopLocalWorkers(spawned);
      return up;
    }
  } else {
    options.workers = fleet.connect;
  }
  StatusOr<ShardedRunResult> result =
      RunFleetCampaign(program, config, options);
  StopLocalWorkers(spawned);
  return result;
}

/// True, after saying so, when a sharded campaign stopped before every
/// shard was fuzzed (a rerun continues it).
bool Paused(const ShardedRunResult& run) {
  if (!run.complete) {
    std::printf("campaign paused: %d of %d shards fuzzed; rerun to "
                "continue\n",
                run.shards_fuzzed_now, run.shards_total);
  }
  return !run.complete;
}

/// Multi-file debloat: one campaign over Θ (optionally sharded), one
/// synthesised source array + `<file>.kdp` package per data file under
/// `out_dir`.
Status DebloatMultiFile(const MultiFileProgram& program,
                        const std::string& out_dir,
                        const std::string& shard_dir,
                        const CampaignFlags& flags,
                        const FleetCliOptions& fleet) {
  KondoConfig config;
  flags.ApplyTo(&config);
  MergedCampaign result;
  if (!shard_dir.empty()) {
    KONDO_ASSIGN_OR_RETURN(
        ShardedRunResult sharded,
        RunShardedFromCli(program, config, shard_dir, flags.shards, fleet));
    if (Paused(sharded)) {
      return OkStatus();
    }
    result = std::move(sharded.merged);
    std::printf("lineage: %s\n", sharded.merged_lineage_path.c_str());
  } else {
    result = RunMultiFileKondo(program, config);
  }
  std::printf("fuzz:  %d evaluations (%d useful), stopped by %s\n",
              result.fuzz_stats.evaluations,
              result.fuzz_stats.useful_evaluations,
              StopReason(result.fuzz_stats));

  KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(out_dir));
  for (int f = 0; f < program.num_files(); ++f) {
    DataArray array(program.file_shape(f), DType::kFloat128);
    array.FillPattern(flags.seed + static_cast<uint64_t>(f));
    DebloatedArray debloated =
        PackageDebloated(array, result.per_file_approx[static_cast<size_t>(f)]);
    const std::string file_name(program.file_name(f));
    std::printf("%s: %d hulls carved\n", file_name.c_str(),
                result.per_file_carve_stats[static_cast<size_t>(f)]
                    .final_hulls);
    KONDO_RETURN_IF_ERROR(WritePackage(out_dir + "/" + file_name + ".kdp",
                                       debloated, flags.jobs));
  }
  return OkStatus();
}

Status CmdDebloat(Args& args) {
  const std::string data_path = args.Value("--data");
  const std::string out_path = args.Required("--out");
  const std::string shard_dir = args.Value("--shard-dir");
  const bool audited = args.Has("--audited");
  const CampaignFlags flags(args);
  FleetCliOptions fleet;
  fleet.spawn_workers = static_cast<int>(
      std::min<int64_t>(args.PositiveInt("--workers").value_or(0), 256));
  fleet.connect = args.Endpoints("--connect");
  fleet.plan_weights_path = args.Value("--plan-weights");
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  if (fleet.spawn_workers > 0 && !fleet.connect.empty()) {
    return args.Fail("--workers and --connect are exclusive");
  }
  if (fleet.active() && shard_dir.empty()) {
    return args.Fail(
        "--workers/--connect need --shard-dir (the campaign directory is "
        "the fleet's source of truth)");
  }
  if (const std::unique_ptr<MultiFileProgram> multi =
          CreateMultiFileProgram(pos[0]);
      multi != nullptr) {
    if (!data_path.empty() || audited) {
      return args.Fail("a multi-file program takes no --data or --audited");
    }
    return DebloatMultiFile(*multi, out_path, shard_dir, flags, fleet);
  }
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                         FindProgram(pos[0]));
  if (data_path.empty()) {
    return args.Fail("missing --data");
  }
  const bool sharded = flags.shards > 1 || !shard_dir.empty();
  if (audited && sharded) {
    return args.Fail("--audited and --shards/--shard-dir are exclusive");
  }

  KondoConfig config = ScaledKondoConfig(program->data_shape());
  flags.ApplyTo(&config);
  IndexSet approx(program->data_shape());
  FuzzStats fuzz;
  int hulls = 0;
  if (sharded) {
    // The chunk-range splitter partitions the single file; the merged
    // result is bit-identical to the unsharded pipeline.
    const SingleFileProgramAdapter adapter(std::move(program));
    KONDO_ASSIGN_OR_RETURN(
        ShardedRunResult run,
        RunShardedFromCli(adapter, config, shard_dir, flags.shards, fleet));
    if (Paused(run)) {
      return OkStatus();
    }
    approx = std::move(run.merged.per_file_approx[0]);
    fuzz = run.merged.fuzz_stats;
    hulls = run.merged.per_file_carve_stats[0].final_hulls;
  } else {
    KondoPipeline pipeline(config);
    const KondoResult result =
        audited ? pipeline.RunWithCandidateTest(
                      MakeAuditedCandidateTest(*program, data_path),
                      program->param_space(), program->data_shape())
                : pipeline.Run(*program);
    approx = result.approx;
    fuzz = result.fuzz.stats;
    hulls = result.carve_stats.final_hulls;
  }
  std::printf("fuzz:  %d evaluations (%d useful), %d hulls carved, "
              "stopped by %s\n",
              fuzz.evaluations, fuzz.useful_evaluations, hulls,
              StopReason(fuzz));

  KONDO_ASSIGN_OR_RETURN(KdfReader reader, KdfReader::Open(data_path));
  KONDO_ASSIGN_OR_RETURN(const DataArray array, reader.ReadAll());
  return WritePackage(out_path, PackageDebloated(array, approx), flags.jobs);
}

Status CmdRepack(Args& args) {
  const std::string data_path = args.Required("--data");
  std::string out_path = args.Value("--out");
  const int jobs = JobsFlag(args);
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  if (out_path.empty()) {
    out_path = pos[0];  // In-place repack (atomic tmp+rename commit).
  }
  // Decodes --data whole; a failure names the damaged chunk.
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<PackReader> data,
                         PackReader::Open(data_path));
  KONDO_ASSIGN_OR_RETURN(const DebloatedArray updated,
                         data->Unpack(nullptr, jobs));
  PackOptions options;
  options.jobs = jobs;
  KONDO_ASSIGN_OR_RETURN(const PackStats stats,
                         RepackKdpFile(pos[0], out_path, updated, options));
  std::printf("repacked %s -> %s: %lld of %lld chunks reused, %lld "
              "re-encoded, %lld bytes on disk\n",
              pos[0].c_str(), out_path.c_str(),
              static_cast<long long>(stats.chunks_reused),
              static_cast<long long>(stats.total_chunks),
              static_cast<long long>(stats.chunks_reencoded),
              static_cast<long long>(stats.file_bytes));
  return OkStatus();
}

Status CmdReplay(Args& args) {
  const std::string remote_path = args.Value("--remote");
  // Clamped so that huge values cannot overflow the arithmetic below.
  FetchPolicy policy;
  policy.max_attempts = 1 + static_cast<int>(std::min<int64_t>(
                                args.PositiveInt("--fetch-retries").value_or(0),
                                1 << 20));
  policy.backoff_micros =
      std::min<int64_t>(args.PositiveInt("--fetch-backoff-ms").value_or(0),
                        int64_t{1} << 40) *
      1000;
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(3, SIZE_MAX));
  ParamValue v;
  for (size_t i = 2; i < pos.size(); ++i) {
    double value = 0;
    if (!ParseDouble(pos[i], &value)) {
      return args.Fail(StrCat("invalid parameter value: ", pos[i]));
    }
    v.push_back(value);
  }
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<Program> program,
                         FindProgram(pos[0]));
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<PackReader> package,
                         PackReader::Open(pos[1]));
  if (static_cast<int>(v.size()) != program->param_space().num_params()) {
    return InvalidArgumentError(StrCat(
        "expected ", program->param_space().num_params(), " parameters"));
  }
  std::unique_ptr<RemoteSource> remote;
  if (!remote_path.empty()) {
    KONDO_ASSIGN_OR_RETURN(remote, KdfRemoteSource::Open(remote_path));
  }

  DebloatRuntime runtime(std::move(package), std::move(remote), policy);
  const Status status = runtime.ReplayRun(*program, v);
  const RuntimeStats& stats = runtime.stats();
  if (!remote_path.empty()) {
    std::printf("replay: %s (%lld local hits, %lld remote fetches, %lld "
                "bytes pulled, %lld retries, %lld fetch failures)\n",
                status.ToString().c_str(),
                static_cast<long long>(stats.hits),
                static_cast<long long>(stats.remote_fetches),
                static_cast<long long>(stats.bytes_fetched),
                static_cast<long long>(stats.fetch_retries),
                static_cast<long long>(stats.fetch_failures));
  } else {
    std::printf("replay: %s (%lld reads, %lld misses)\n",
                status.ToString().c_str(),
                static_cast<long long>(stats.reads),
                static_cast<long long>(stats.misses));
  }
  return status;
}

/// Multi-file evaluate: runs the (optionally sharded) multi-file pipeline
/// and scores each file's approximation against its enumerated ground
/// truth.
Status EvaluateMultiFile(const MultiFileProgram& program,
                         const CampaignFlags& flags) {
  KondoConfig config;
  flags.ApplyTo(&config);
  const MergedCampaign result = RunMultiFileKondo(program, config);
  std::printf("fuzz:  %d evaluations (%d useful) in %d iterations, "
              "stopped by %s\n",
              result.fuzz_stats.evaluations,
              result.fuzz_stats.useful_evaluations, result.fuzz_stats.iterations,
              StopReason(result.fuzz_stats));
  const MultiIndexSets truths = program.GroundTruths();
  for (int f = 0; f < program.num_files(); ++f) {
    const IndexSet& approx = result.per_file_approx[static_cast<size_t>(f)];
    const AccuracyMetrics metrics =
        ComputeAccuracy(truths[static_cast<size_t>(f)], approx);
    std::printf("%-12s precision %.3f  recall %.3f  bloat %.1f%%  "
                "(%d hulls)\n",
                std::string(program.file_name(f)).c_str(), metrics.precision,
                metrics.recall,
                100.0 * BloatFraction(program.file_shape(f), approx),
                result.per_file_carve_stats[static_cast<size_t>(f)]
                    .final_hulls);
  }
  return OkStatus();
}

Status CmdEvaluate(Args& args) {
  const CampaignFlags flags(args);
  const bool map = args.Has("--map");
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  if (const std::unique_ptr<MultiFileProgram> multi =
          CreateMultiFileProgram(pos[0]);
      multi != nullptr) {
    return EvaluateMultiFile(*multi, flags);
  }
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                         FindProgram(pos[0]));
  KondoConfig config = ScaledKondoConfig(program->data_shape());
  flags.ApplyTo(&config);
  const IndexSet truth = program->GroundTruth();
  const Shape shape = program->data_shape();
  if (flags.shards > 1) {
    // Route through the chunk-range splitter; the merged approximation is
    // bit-identical to the unsharded pipeline's.
    const SingleFileProgramAdapter adapter(std::move(program));
    const MergedCampaign result = RunMultiFileKondo(adapter, config);
    const IndexSet& approx = result.per_file_approx[0];
    const AccuracyMetrics metrics = ComputeAccuracy(truth, approx);
    std::printf("fuzz:  %d evaluations (%d useful) across %d shards, "
                "stopped by %s\n",
                result.fuzz_stats.evaluations,
                result.fuzz_stats.useful_evaluations, flags.shards,
                StopReason(result.fuzz_stats));
    std::printf("precision %.3f  recall %.3f  bloat %.1f%%  (%d hulls)\n",
                metrics.precision, metrics.recall,
                100.0 * BloatFraction(shape, approx),
                result.per_file_carve_stats[0].final_hulls);
    if (map) {
      std::printf("%s", RenderComparison(truth, approx).c_str());
    }
    return OkStatus();
  }
  const KondoResult result = KondoPipeline(config).Run(*program);
  const AccuracyMetrics metrics = ComputeAccuracy(truth, result.approx);
  std::printf("%s", FormatCampaignReport(result, metrics).c_str());
  std::printf("bloat identified: %.1f%%\n",
              100.0 * BloatFraction(shape, result.approx));
  if (map) {
    std::printf("%s", RenderComparison(truth, result.approx).c_str());
  }
  return OkStatus();
}

Status CmdFuzz(Args& args) {
  const std::string out_path = args.Required("--out");
  const std::string resume_path = args.Value("--resume");
  const CampaignFlags flags(args);
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Program> program,
                         FindProgram(pos[0]));
  const Shape shape = program->data_shape();
  KondoConfig config = ScaledKondoConfig(shape);
  flags.ApplyTo(&config);

  // The state is shard 0 of a one-file campaign.
  ShardCampaignResult state;
  if (flags.shards > 1) {
    // Sharded campaign (in memory): the merge reconstitutes the exact
    // serial result — seeds from the replicated schedule, discovered set
    // as the union over the shard partition.
    const SingleFileProgramAdapter adapter(std::move(program));
    MergedCampaign merged = RunMultiFileKondo(adapter, config);
    state.per_file.push_back(std::move(merged.per_file_discovered[0]));
    state.seeds = std::move(merged.seeds);
    state.stats = merged.fuzz_stats;
  } else {
    CampaignExecutor executor(flags.jobs);
    FuzzSchedule schedule(program->param_space(), shape, config.fuzz,
                          flags.seed);
    FuzzResult result = schedule.Run(executor, MakeCandidateTest(*program));
    state.per_file.push_back(std::move(result.discovered));
    state.seeds = std::move(result.seeds);
    state.stats = std::move(result.stats);
  }

  if (!resume_path.empty()) {
    KONDO_ASSIGN_OR_RETURN(ShardCampaignResult previous,
                           LoadShardState(resume_path, 0, {shape}));
    ExtendCampaign(&previous, std::move(state));
    state = std::move(previous);
  }
  KONDO_RETURN_IF_ERROR(SaveShardState(out_path, 0, state));
  // After a resume the stats are still this run's (ExtendCampaign).
  std::printf("campaign: %d evaluations this run (stopped by %s); state now "
              "holds %zu seeds and %zu discovered offsets -> %s\n",
              state.stats.evaluations, StopReason(state.stats),
              state.seeds.size(), state.per_file[0].size(), out_path.c_str());
  return OkStatus();
}

Status CmdCarve(Args& args) {
  const std::string state_path = args.Required("--state");
  const std::optional<double> center = args.Double("--center");
  const std::optional<double> boundary = args.Double("--boundary");
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<Program> program,
                         FindProgram(pos[0]));
  KONDO_ASSIGN_OR_RETURN(
      const ShardCampaignResult state,
      LoadShardState(state_path, 0, {program->data_shape()}));
  const IndexSet& discovered = state.per_file[0];
  CarveConfig config = ScaledKondoConfig(program->data_shape()).carve;
  config.center_d_thresh = center.value_or(config.center_d_thresh);
  config.boundary_d_thresh = boundary.value_or(config.boundary_d_thresh);
  CarveStats stats;
  const IndexSet approx = Carver(config).Carve(discovered, &stats).Rasterize();
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), approx);
  std::printf("carved %d hulls from %zu discovered offsets (%d merges)\n",
              stats.final_hulls, discovered.size(),
              stats.merge_operations);
  std::printf("precision %.3f, recall %.3f, subset %lld of %lld\n",
              metrics.precision, metrics.recall,
              static_cast<long long>(metrics.approx_size),
              static_cast<long long>(
                  program->data_shape().NumElements()));
  return OkStatus();
}

// ---------------------------------------------------------- provenance --

Status CmdCompact(Args& args) {
  Kel2WriterOptions options;
  options.events_per_block =
      args.PositiveInt("--block").value_or(options.events_per_block);
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(2));
  KONDO_ASSIGN_OR_RETURN(const CompactStats stats,
                         CompactLineageStore(pos[0], pos[1], options));
  std::printf("compacted %s -> %s: %lld events in %lld blocks, "
              "%lld -> %lld bytes (input/output %.2fx)\n",
              pos[0].c_str(), pos[1].c_str(),
              static_cast<long long>(stats.events),
              static_cast<long long>(stats.blocks),
              static_cast<long long>(stats.input_bytes),
              static_cast<long long>(stats.output_bytes), stats.Ratio());
  return OkStatus();
}

Status CmdQuery(Args& args) {
  const std::string range = args.Required("--range");
  const int64_t file_id = args.Int64("--file").value_or(1);
  const bool runs_only = args.Has("--runs");
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  int64_t begin = 0, end = 0;
  KONDO_RETURN_IF_ERROR(ParseRange(range, &begin, &end));
  KONDO_ASSIGN_OR_RETURN(Kel2Reader reader, Kel2Reader::Open(pos[0]));
  ProvenanceQuery query(&reader);
  KONDO_ASSIGN_OR_RETURN(const std::vector<Event> events,
                         query.EventsOverlapping(file_id, begin, end));
  std::vector<int64_t> pids;
  for (const Event& event : events) {
    pids.push_back(event.id.pid);
    if (!runs_only) {
      std::printf("%s\n", event.ToString().c_str());
    }
  }
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  if (runs_only) {
    for (int64_t pid : pids) {
      std::printf("%lld\n", static_cast<long long>(pid));
    }
  }
  const ProvenanceQueryStats& stats = query.stats();
  std::printf("%zu events, %zu runs in [%lld,%lld) — decoded %lld of %lld "
              "blocks (%lld skipped in-situ)\n",
              events.size(), pids.size(), static_cast<long long>(begin),
              static_cast<long long>(end),
              static_cast<long long>(stats.blocks_decoded),
              static_cast<long long>(reader.NumBlocks()),
              static_cast<long long>(stats.blocks_skipped));
  return OkStatus();
}

Status CmdStoreStats(Args& args) {
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  KONDO_ASSIGN_OR_RETURN(const int64_t file_bytes, FileSizeBytes(pos[0]));
  KONDO_ASSIGN_OR_RETURN(Kel2Reader reader, Kel2Reader::Open(pos[0]));
  std::printf("KEL2 store: %lld events in %lld blocks, %lld bytes\n",
              static_cast<long long>(reader.NumEvents()),
              static_cast<long long>(reader.NumBlocks()),
              static_cast<long long>(file_bytes));
  if (reader.NumEvents() > 0) {
    const double per_event = static_cast<double>(reader.BlockBytes()) /
                             static_cast<double>(reader.NumEvents());
    const bool larger = per_event > 40.0;
    std::printf("density:    %.2f bytes/event (%.2fx %s than 40-byte "
                "fixed-width records)\n",
                per_event, larger ? per_event / 40.0 : 40.0 / per_event,
                larger ? "larger" : "smaller");
  }
  // Distinct file ids come from the decoded events: a block's descriptor
  // range [min_file_id, max_file_id] may span ids no event carries.
  std::set<int64_t> file_ids;
  for (size_t b = 0; b < reader.blocks().size(); ++b) {
    KONDO_ASSIGN_OR_RETURN(const std::vector<Event> events,
                           reader.DecodeBlock(b));
    for (const Event& event : events) {
      file_ids.insert(event.id.file_id);
    }
  }
  ProvenanceQuery query(&reader);
  for (int64_t file_id : file_ids) {
    KONDO_ASSIGN_OR_RETURN(const auto coverage, query.PerRunCoverage(file_id));
    for (const auto& [pid, bytes] : coverage) {
      std::printf("file %lld run %lld: %lld distinct bytes accessed\n",
                  static_cast<long long>(file_id),
                  static_cast<long long>(pid),
                  static_cast<long long>(bytes));
    }
  }
  return OkStatus();
}

// ------------------------------------------------------- serve and fleet --

volatile std::sig_atomic_t g_serve_stop = 0;

void ServeSignalHandler(int /*signum*/) { g_serve_stop = 1; }

/// Runs a daemon (`kondo serve`, `kondo worker`) in the foreground: starts
/// it, prints "<label> <address> (<detail>)", serves until SIGTERM or
/// SIGINT, then stops it.
template <typename Daemon>
Status RunDaemonUntilSignal(Daemon& daemon, const char* label,
                            const std::string& detail) {
  KONDO_RETURN_IF_ERROR(daemon.Start());
  std::printf("%s %s (%s)\n", label,
              daemon.bound_address().ToString().c_str(), detail.c_str());
  std::fflush(stdout);
  g_serve_stop = 0;
  std::signal(SIGTERM, ServeSignalHandler);
  std::signal(SIGINT, ServeSignalHandler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  daemon.Stop();
  return OkStatus();
}

Status CmdServe(Args& args) {
  ServeOptions options;
  options.address = args.Address();
  if (const std::string pool = args.Value("--pool"); !pool.empty()) {
    options.pool_root = pool;
  }
  options.jobs = JobsFlag(args);
  if (const std::optional<int64_t> mb = args.PositiveInt("--cache-mb")) {
    options.cache_bytes = std::min<int64_t>(*mb, int64_t{1} << 40) << 20;
  }
  options.max_inflight = static_cast<int>(
      args.PositiveInt("--max-inflight").value_or(options.max_inflight));
  options.queue_capacity = static_cast<int>(
      args.PositiveInt("--queue").value_or(options.queue_capacity));
  KONDO_RETURN_IF_ERROR(args.Positionals(0).status());

  KondoServer server(options);
  KONDO_RETURN_IF_ERROR(RunDaemonUntilSignal(
      server, "listening on",
      StrCat("pool ", options.pool_root, ", ", options.jobs, " jobs")));
  const ServeStatsSnapshot stats = server.Stats();
  std::printf("shutdown: %lld sessions, %lld requests, cache %lld/%lld "
              "hit/miss, campaigns %lld completed %lld failed %lld "
              "rejected\n",
              static_cast<long long>(stats.sessions_accepted),
              static_cast<long long>(stats.requests_total),
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_misses),
              static_cast<long long>(stats.campaigns_completed),
              static_cast<long long>(stats.campaigns_failed),
              static_cast<long long>(stats.campaigns_rejected));
  return OkStatus();
}

/// A fleet worker process: binds, serves shard campaigns until SIGTERM or
/// SIGINT, then drains and reports. `debloat --workers N` spawns exactly
/// this command; operators run it by hand for `--connect` fleets.
Status CmdWorker(Args& args) {
  FleetWorkerOptions options;
  options.address = args.Address();
  if (const std::string scratch = args.Value("--scratch"); !scratch.empty()) {
    options.scratch_dir = scratch;
  }
  options.jobs = JobsFlag(args);
  KONDO_RETURN_IF_ERROR(args.Positionals(0).status());

  FleetWorker worker(options);
  KONDO_RETURN_IF_ERROR(RunDaemonUntilSignal(
      worker, "worker listening on",
      StrCat("scratch ", options.scratch_dir, ", ", options.jobs, " jobs")));
  std::printf("worker shutdown: %lld shard(s) served\n",
              static_cast<long long>(worker.shards_served()));
  return OkStatus();
}

Status CmdFetch(Args& args) {
  const SocketAddress address = args.Address();
  const std::string range = args.Required("--range");
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  FetchSubsetRequest request;
  request.artifact = pos[0];
  KONDO_RETURN_IF_ERROR(ParseRange(range, &request.begin, &request.end));
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<KpcClient> client,
                         KpcClient::Connect(address));
  KONDO_ASSIGN_OR_RETURN(const FetchSubsetResponse response,
                         client->FetchSubset(request));
  size_t value_pos = 0;
  for (size_t i = 0; i < response.present.size(); ++i) {
    const long long linear = static_cast<long long>(request.begin) +
                             static_cast<long long>(i);
    if (response.present[i] != 0) {
      std::printf("%lld: %.17g\n", linear, response.values[value_pos++]);
    } else {
      std::printf("%lld: (null)\n", linear);
    }
  }
  std::printf("fetched [%lld,%lld) of %s: %zu present of %zu "
              "(fingerprint %lld bytes crc %08x)\n",
              static_cast<long long>(request.begin),
              static_cast<long long>(request.end), request.artifact.c_str(),
              response.values.size(), response.present.size(),
              static_cast<long long>(response.fingerprint_bytes),
              response.fingerprint_crc);
  return OkStatus();
}

Status CmdRemoteQuery(Args& args) {
  const SocketAddress address = args.Address();
  const std::string range = args.Required("--range");
  QueryRequest request;
  request.file_id = args.Int64("--file").value_or(request.file_id);
  request.runs_only = args.Has("--runs") ? 1 : 0;
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  request.store = pos[0];
  KONDO_RETURN_IF_ERROR(ParseRange(range, &request.begin, &request.end));
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<KpcClient> client,
                         KpcClient::Connect(address));
  KONDO_ASSIGN_OR_RETURN(const QueryResult result,
                         client->QueryProvenance(request));
  for (const Event& event : result.events) {
    std::printf("%s\n", event.ToString().c_str());
  }
  if (request.runs_only != 0) {
    for (int64_t pid : result.done.runs) {
      std::printf("%lld\n", static_cast<long long>(pid));
    }
  }
  std::printf("%lld events, %zu runs in [%lld,%lld) — decoded %lld of %lld "
              "blocks (%lld skipped in-situ)\n",
              static_cast<long long>(result.done.events_total),
              result.done.runs.size(),
              static_cast<long long>(request.begin),
              static_cast<long long>(request.end),
              static_cast<long long>(result.done.blocks_decoded),
              static_cast<long long>(result.done.blocks_considered),
              static_cast<long long>(result.done.blocks_skipped));
  return OkStatus();
}

Status CmdSubmit(Args& args) {
  SubmitRequest request;
  request.seed = static_cast<int64_t>(args.Uint64("--seed").value_or(1));
  request.max_evals = args.PositiveInt("--max-evals").value_or(0);
  request.max_iter = args.PositiveInt("--max-iter").value_or(0);
  const SocketAddress address = args.Address();
  KONDO_ASSIGN_OR_RETURN(const std::vector<std::string> pos,
                         args.Positionals(1));
  request.program = pos[0];
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<KpcClient> client,
                         KpcClient::Connect(address));
  KONDO_ASSIGN_OR_RETURN(const SubmitResponse response,
                         client->SubmitCampaign(request));
  if (response.accepted == 0) {
    return ResourceExhaustedError(
        StrCat("rejected: ", response.message, " (queue depth ",
               response.queue_depth, ")"));
  }
  std::printf("accepted job %lld (queue depth %lld)\n",
              static_cast<long long>(response.job_id),
              static_cast<long long>(response.queue_depth));
  return OkStatus();
}

Status CmdServerStats(Args& args) {
  const SocketAddress address = args.Address();
  KONDO_RETURN_IF_ERROR(args.Positionals(0).status());
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<KpcClient> client,
                         KpcClient::Connect(address));
  KONDO_ASSIGN_OR_RETURN(const ServeStatsSnapshot stats, client->Stats());
  std::printf("cache: %lld hits, %lld misses, %lld evictions (%lld stale), "
              "%lld entries, %lld of %lld bytes\n",
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_misses),
              static_cast<long long>(stats.cache_evictions),
              static_cast<long long>(stats.cache_stale_evictions),
              static_cast<long long>(stats.cache_entries),
              static_cast<long long>(stats.cache_bytes),
              static_cast<long long>(stats.cache_capacity_bytes));
  std::printf("sessions: %lld accepted, %lld active, %lld requests, "
              "%lld protocol errors\n",
              static_cast<long long>(stats.sessions_accepted),
              static_cast<long long>(stats.sessions_active),
              static_cast<long long>(stats.requests_total),
              static_cast<long long>(stats.protocol_errors));
  std::printf("campaigns: %lld submitted, %lld rejected, %lld completed, "
              "%lld failed, queue %lld, in-flight %lld, %lld lineage "
              "bytes\n",
              static_cast<long long>(stats.campaigns_submitted),
              static_cast<long long>(stats.campaigns_rejected),
              static_cast<long long>(stats.campaigns_completed),
              static_cast<long long>(stats.campaigns_failed),
              static_cast<long long>(stats.campaign_queue_depth),
              static_cast<long long>(stats.campaign_inflight),
              static_cast<long long>(stats.lineage_bytes_written));
  std::printf("stores: %lld open, %lld reopened\n",
              static_cast<long long>(stats.stores_open),
              static_cast<long long>(stats.stores_reopened));
  for (int verb = 0; verb < kKpcVerbCount; ++verb) {
    const VerbLatency& latency = stats.verbs[verb];
    if (latency.count == 0) continue;
    std::printf("%s: %lld requests, mean %.1f us, max %lld us\n",
                KpcVerbName(verb), static_cast<long long>(latency.count),
                static_cast<double>(latency.total_micros) /
                    static_cast<double>(latency.count),
                static_cast<long long>(latency.max_micros));
  }
  return OkStatus();
}

Status CmdBlast(Args& args) {
  BlastOptions options;
  options.address = args.Address();
  options.artifact = args.Required("--artifact");
  const std::string range = args.Value("--range");
  options.clients = static_cast<int>(
      args.PositiveInt("--clients").value_or(options.clients));
  options.requests = static_cast<int>(
      args.PositiveInt("--requests").value_or(options.requests));
  KONDO_RETURN_IF_ERROR(args.Positionals(0).status());
  if (!range.empty()) {
    KONDO_RETURN_IF_ERROR(ParseRange(range, &options.begin, &options.end));
  }
  KONDO_ASSIGN_OR_RETURN(const BlastReport report, RunBlast(options));
  std::printf("%d clients x %d requests against %s [%lld,%lld)\n",
              options.clients, options.requests, options.artifact.c_str(),
              static_cast<long long>(options.begin),
              static_cast<long long>(options.end));
  std::printf("%lld ok, %lld failed in %.3fs — %.0f req/s, %lld bytes, "
              "latency p50/p90/p99/max %lld/%lld/%lld/%lld us, "
              "responses %s\n",
              static_cast<long long>(report.ok_requests),
              static_cast<long long>(report.failed_requests),
              report.elapsed_seconds, report.throughput_rps,
              static_cast<long long>(report.bytes_received),
              static_cast<long long>(report.p50_micros),
              static_cast<long long>(report.p90_micros),
              static_cast<long long>(report.p99_micros),
              static_cast<long long>(report.max_micros),
              report.responses_identical ? "identical" : "DIVERGENT");
  if (report.failed_requests != 0 || !report.responses_identical) {
    return InternalError("blast saw failed or divergent responses");
  }
  return OkStatus();
}

// -------------------------------------------------------- command table --

/// One `kondo` command: its name (two words for a subcommand), the
/// synopsis printed after `kondo <name>`, the flags it accepts (an Args
/// declaration: a trailing '=' marks a flag that takes a value), and its
/// body. Argument errors exit 2 with the synopsis; other errors exit 1.
struct Command {
  const char* name;
  const char* synopsis;
  const char* flags;
  Status (*run)(Args& args);
};

constexpr Command kCommands[] = {
    {"programs", "", "", CmdPrograms},
    {"spec", "<Kondofile>", "", CmdSpec},
    {"make-data", "<program> <out.kdf> [--chunked] [--seed N]",
     "--chunked --seed=", CmdMakeData},
    {"inspect", "<file.kdf|file.kdp>", "", CmdInspect},
    {"debloat",
     "<program> --data <in.kdf> --out <out.kdp>\n"
     "                [--seed N] [--audited] [--max-iter N] [--max-evals N]\n"
     "                [--jobs N] [--shards N] [--shard-dir DIR]\n"
     "                [--workers N | --connect ADDR ...]\n"
     "                [--plan-weights KEL2]\n"
     "  kondo debloat <multi-file-program> --out <dir>\n"
     "                [--seed N] [--max-iter N] [--max-evals N] [--jobs N]\n"
     "                [--shards N] [--shard-dir DIR]\n"
     "                [--workers N | --connect ADDR ...]\n"
     "                [--plan-weights KEL2]",
     "--data= --out= --shard-dir= --audited --seed= --max-iter= --max-evals= "
     "--jobs= --shards= --workers= --connect= --plan-weights=",
     CmdDebloat},
    {"replay",
     "<program> <in.kdp> <param>... [--remote <orig.kdf>]\n"
     "      [--fetch-retries <n>] [--fetch-backoff-ms <ms>]",
     "--remote= --fetch-retries= --fetch-backoff-ms=", CmdReplay},
    {"evaluate",
     "<program> [--seed N] [--map] [--jobs N]\n"
     "                 [--shards N] [--max-evals N]",
     "--seed= --map --jobs= --shards= --max-evals=", CmdEvaluate},
    {"fuzz",
     "<program> --out <state.kss> [--seed N]\n"
     "              [--max-iter N] [--max-evals N] [--resume <state.kss>]\n"
     "              [--jobs N] [--shards N]",
     "--out= --resume= --seed= --max-iter= --max-evals= --jobs= --shards=",
     CmdFuzz},
    {"carve",
     "<program> --state <state.kss> [--center X]\n"
     "              [--boundary X]",
     "--state= --center= --boundary=", CmdCarve},
    {"repack",
     "<pkg.kdp> --data <updated.kdp> [--out <out.kdp>]\n"
     "               [--jobs N]",
     "--data= --out= --jobs=", CmdRepack},
    {"provenance compact", "<in.kel2> <out.kel2> [--block N]", "--block=",
     CmdCompact},
    {"provenance query", "<store> --range A:B [--file F] [--runs]",
     "--range= --file= --runs", CmdQuery},
    {"provenance stats", "<store>", "", CmdStoreStats},
    {"serve",
     "(--socket PATH | --port N) [--pool DIR] [--jobs N]\n"
     "              [--cache-mb N] [--max-inflight N] [--queue N]",
     "--socket= --port= --pool= --jobs= --cache-mb= --max-inflight= --queue=",
     CmdServe},
    {"client fetch", "<artifact> --range A:B (--socket P | --port N)",
     "--range= --socket= --port=", CmdFetch},
    {"client query",
     "<store> --range A:B [--file F] [--runs]\n"
     "               (--socket PATH | --port N)",
     "--range= --file= --runs --socket= --port=", CmdRemoteQuery},
    {"client submit",
     "<program> [--seed N] [--max-evals N]\n"
     "               [--max-iter N] (--socket PATH | --port N)",
     "--seed= --max-evals= --max-iter= --socket= --port=", CmdSubmit},
    {"client stats", "(--socket PATH | --port N)", "--socket= --port=",
     CmdServerStats},
    {"blast",
     "--artifact A (--socket PATH | --port N) [--clients N]\n"
     "              [--requests N] [--range A:B]",
     "--artifact= --socket= --port= --clients= --requests= --range=",
     CmdBlast},
    {"worker", "(--socket PATH | --port N) [--scratch DIR] [--jobs N]",
     "--socket= --port= --scratch= --jobs=", CmdWorker},
};

/// Prints the synopsis of the command `name`, of every subcommand of the
/// group `name` (`provenance`), or, when `name` is neither, of every
/// command. Returns the argument-error exit code.
int Usage(const std::string& name) {
  const auto matches = [&](const Command& command) {
    return name == command.name || StartsWith(command.name, name + " ");
  };
  const bool known =
      std::any_of(std::begin(kCommands), std::end(kCommands), matches);
  std::fprintf(stderr, "usage:\n");
  for (const Command& command : kCommands) {
    if (!known || matches(command)) {
      std::fprintf(stderr, "  kondo %s%s%s\n", command.name,
                   *command.synopsis == '\0' ? "" : " ", command.synopsis);
    }
  }
  return 2;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> words(argv + 1, argv + argc);
  for (const Command& command : kCommands) {
    const std::vector<std::string> name = StrSplit(command.name, ' ');
    if (words.size() < name.size() ||
        !std::equal(name.begin(), name.end(), words.begin())) {
      continue;
    }
    Args args(std::vector<std::string>(
                  words.begin() + static_cast<int64_t>(name.size()),
                  words.end()),
              command.flags);
    const Status status = command.run(args);
    if (status.ok()) {
      return 0;
    }
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return args.failed() ? Usage(command.name) : 1;
  }
  return Usage(words.empty() ? "" : words[0]);
}

}  // namespace
}  // namespace kondo::cli

int main(int argc, char** argv) { return kondo::cli::Main(argc, argv); }
