// kondo — command-line front end for the Kondo data-debloating library.
//
//   kondo programs
//   kondo spec <Kondofile>
//   kondo make-data <program> <out.kdf> [--chunked] [--seed N]
//   kondo inspect <file.kdf|file.kdp>
//   kondo debloat <program> --data <in.kdf> --out <out.kdp>
//                 [--seed N] [--audited] [--max-iter N] [--max-evals N]
//                 [--jobs N] [--shards N] [--shard-dir DIR]
//                 [--workers N | --connect ADDR ...] [--plan-weights KEL2]
//   kondo debloat <multi-file-program> --out <dir>
//                 [--seed N] [--max-iter N] [--max-evals N]
//                 [--jobs N] [--shards N] [--shard-dir DIR]
//                 [--workers N | --connect ADDR ...] [--plan-weights KEL2]
//   kondo replay <program> <in.kdp> <param>... [--remote <orig.kdf>]
//       [--fetch-retries <n>] [--fetch-backoff-ms <ms>]
//   kondo evaluate <program> [--seed N] [--map] [--jobs N] [--shards N]
//                 [--max-evals N]
//   kondo fuzz <program> --out <state.kcs> [--seed N] [--max-iter N]
//               [--max-evals N] [--resume <state.kcs>] [--jobs N]
//               [--shards N]
//   kondo carve <program> --state <state.kcs> [--center X] [--boundary X]
//   kondo repack <pkg.kdp> --data <updated.kdp> [--out <out.kdp>] [--jobs N]
//   kondo provenance compact <in.kel2> <out.kel2> [--block N]
//   kondo provenance query <store> --range A:B [--file F] [--runs]
//   kondo provenance stats <store>
//   kondo serve (--socket PATH | --port N) [--pool DIR] [--jobs N]
//               [--cache-mb N] [--max-inflight N] [--queue N]
//   kondo worker (--socket PATH | --port N) [--scratch DIR] [--jobs N]
//   kondo client fetch|query|submit|stats ... (--socket PATH | --port N)
//   kondo blast --artifact A (--socket PATH | --port N) [--clients N]
//               [--requests N] [--range A:B]

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
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
#include "common/flag_parse.h"
#include "common/strings.h"
#include "exec/campaign_executor.h"
#include "exec/thread_pool.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fleet_worker.h"
#include "fuzz/campaign_state.h"
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
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo::cli {
namespace {

/// Per-command usage lines. Argument errors print only the offending
/// command's synopsis; the bare `kondo` invocation prints them all.
struct CommandHelp {
  const char* name;
  const char* usage;
};

constexpr CommandHelp kCommandHelp[] = {
    {"programs", "  kondo programs\n"},
    {"spec", "  kondo spec <Kondofile>\n"},
    {"make-data",
     "  kondo make-data <program> <out.kdf> [--chunked] [--seed N]\n"},
    {"inspect", "  kondo inspect <file.kdf|file.kdp>\n"},
    {"debloat",
     "  kondo debloat <program> --data <in.kdf> --out <out.kdp>\n"
     "                [--seed N] [--audited] [--max-iter N] [--max-evals N]\n"
     "                [--jobs N] [--shards N] [--shard-dir DIR]\n"
     "                [--workers N | --connect ADDR ...]\n"
     "                [--plan-weights KEL2]\n"
     "  kondo debloat <multi-file-program> --out <dir>\n"
     "                [--seed N] [--max-iter N] [--max-evals N] [--jobs N]\n"
     "                [--shards N] [--shard-dir DIR]\n"
     "                [--workers N | --connect ADDR ...]\n"
     "                [--plan-weights KEL2]\n"},
    {"replay",
     "  kondo replay <program> <in.kdp> <param>... [--remote <orig.kdf>]\n"
     "      [--fetch-retries <n>] [--fetch-backoff-ms <ms>]\n"},
    {"evaluate",
     "  kondo evaluate <program> [--seed N] [--map] [--jobs N]\n"
     "                 [--shards N] [--max-evals N]\n"},
    {"fuzz",
     "  kondo fuzz <program> --out <state.kcs> [--seed N]\n"
     "              [--max-iter N] [--max-evals N] [--resume <state.kcs>]\n"
     "              [--jobs N] [--shards N]\n"},
    {"carve",
     "  kondo carve <program> --state <state.kcs> [--center X]\n"
     "              [--boundary X]\n"},
    {"repack",
     "  kondo repack <pkg.kdp> --data <updated.kdp> [--out <out.kdp>]\n"
     "               [--jobs N]\n"},
    {"provenance",
     "  kondo provenance compact <in.kel2> <out.kel2> [--block N]\n"
     "  kondo provenance query <store> --range A:B [--file F] [--runs]\n"
     "  kondo provenance stats <store>\n"},
    {"serve",
     "  kondo serve (--socket PATH | --port N) [--pool DIR] [--jobs N]\n"
     "              [--cache-mb N] [--max-inflight N] [--queue N]\n"},
    {"client",
     "  kondo client fetch <artifact> --range A:B (--socket P | --port N)\n"
     "  kondo client query <store> --range A:B [--file F] [--runs]\n"
     "               (--socket PATH | --port N)\n"
     "  kondo client submit <program> [--seed N] [--max-evals N]\n"
     "               [--max-iter N] (--socket PATH | --port N)\n"
     "  kondo client stats (--socket PATH | --port N)\n"},
    {"blast",
     "  kondo blast --artifact A (--socket PATH | --port N) [--clients N]\n"
     "              [--requests N] [--range A:B]\n"},
    {"worker",
     "  kondo worker (--socket PATH | --port N) [--scratch DIR] [--jobs N]\n"},
};

int Usage() {
  std::fprintf(stderr, "usage:\n");
  for (const CommandHelp& help : kCommandHelp) {
    std::fprintf(stderr, "%s", help.usage);
  }
  return 2;
}

/// Argument error for a recognised command: print just that command's
/// synopsis.
int UsageFor(const char* name) {
  for (const CommandHelp& help : kCommandHelp) {
    if (std::strcmp(help.name, name) == 0) {
      std::fprintf(stderr, "usage:\n%s", help.usage);
      return 2;
    }
  }
  return Usage();
}

/// `--jobs N` (campaign worker threads). Defaults to the hardware
/// concurrency; explicit values must be positive integers (then clamped to
/// a sane range). Results are bit-identical across settings — only
/// wall-clock time changes. Returns false on a malformed value.
bool JobsFrom(std::vector<std::string>* args, int* jobs) {
  int64_t value = 0;
  switch (TakePositiveInt(args, "--jobs", &value)) {
    case FlagParse::kAbsent:
      *jobs = ClampJobs(HardwareThreads());
      return true;
    case FlagParse::kOk:
      *jobs = ClampJobs(static_cast<int>(std::min<int64_t>(value, 1 << 20)));
      return true;
    case FlagParse::kBad:
      return false;
  }
  return false;
}

/// `--shards N` (campaign shards; default 1 = unsharded). The merged
/// result is bit-identical at every setting.
bool ShardsFrom(std::vector<std::string>* args, int* shards) {
  int64_t value = 1;
  if (TakePositiveInt(args, "--shards", &value) == FlagParse::kBad) {
    return false;
  }
  *shards = static_cast<int>(std::min<int64_t>(value, 1 << 20));
  return true;
}

/// `--max-evals N` (deterministic evaluation budget; 0 = unlimited).
bool MaxEvalsFrom(std::vector<std::string>* args, int64_t* max_evals) {
  *max_evals = 0;
  return TakePositiveInt(args, "--max-evals", max_evals) != FlagParse::kBad;
}

/// `--max-iter N` (schedule iteration cap; 0 = keep the config default).
bool MaxIterFrom(std::vector<std::string>* args, int64_t* max_iter) {
  *max_iter = 0;
  return TakePositiveInt(args, "--max-iter", max_iter) != FlagParse::kBad;
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
int WritePackage(const std::string& path, const DebloatedArray& array,
                 const PackOptions& options) {
  StatusOr<PackStats> stats = WriteKdpFile(path, array, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  const int64_t original = array.OriginalPayloadBytes();
  const double smaller = 100.0 * (1.0 - static_cast<double>(stats->file_bytes) /
                                            static_cast<double>(original));
  std::printf("wrote %s: %lld of %lld elements retained, %lld -> %lld "
              "bytes (%.1f%% smaller)\n",
              path.c_str(), static_cast<long long>(array.retained_count()),
              static_cast<long long>(array.shape().NumElements()),
              static_cast<long long>(original),
              static_cast<long long>(stats->file_bytes), smaller);
  std::printf("packed: %lld chunks (%lld holes, %lld coded, %lld raw), "
              "%lld -> %lld payload bytes\n",
              static_cast<long long>(stats->total_chunks),
              static_cast<long long>(stats->hole_chunks),
              static_cast<long long>(stats->coded_chunks),
              static_cast<long long>(stats->raw_chunks),
              static_cast<long long>(stats->decoded_bytes),
              static_cast<long long>(stats->encoded_bytes));
  return 0;
}

/// Opens the KDP package at `path` and decodes it whole, printing the
/// failure (which names a damaged chunk) on error.
StatusOr<DebloatedArray> UnpackFile(const std::string& path, int jobs) {
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return reader.status();
  }
  StatusOr<DebloatedArray> array = (*reader)->Unpack(nullptr, jobs);
  if (!array.ok()) {
    std::fprintf(stderr, "%s\n", array.status().ToString().c_str());
  }
  return array;
}

int CmdPrograms() {
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
  return 0;
}

int CmdSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<ContainerSpec> spec = ParseContainerSpec(buffer.str());
  if (!spec.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }
  std::printf("base image: %s\n", spec->base_image.c_str());
  std::printf("run steps:  %zu\n", spec->run_steps.size());
  for (const AddInstruction& add : spec->adds) {
    std::printf("add:        %s -> %s\n", add.source.c_str(),
                add.destination.c_str());
  }
  std::printf("theta:      %s\n", spec->params.ToString().c_str());
  std::printf("entrypoint: %s\n", spec->entrypoint.c_str());
  return 0;
}

int CmdMakeData(std::vector<std::string> args) {
  const bool chunked = TakeFlag(&args, "--chunked");
  const uint64_t seed = SeedFrom(&args);
  if (args.size() != 2) {
    return UsageFor("make-data");
  }
  const std::unique_ptr<Program> program = CreateProgram(args[0]);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program: %s\n", args[0].c_str());
    return 1;
  }
  DataArray array(program->data_shape(), DType::kFloat128);
  array.FillPattern(seed);
  std::vector<int64_t> chunk_dims(
      static_cast<size_t>(program->rank()),
      std::max<int64_t>(2, program->data_shape().dim(0) / 16));
  const Status status = WriteKdfFile(
      args[1], array, chunked ? LayoutKind::kChunked : LayoutKind::kRowMajor,
      chunk_dims);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: shape %s, %s layout\n", args[1].c_str(),
              program->data_shape().ToString().c_str(),
              chunked ? "chunked" : "row-major");
  return 0;
}

/// Prints a KDP package's shape, retention, chunk coding and fingerprint.
int InspectPackage(const std::string& path) {
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const KdpManifest& manifest = (*reader)->manifest();
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
  const int64_t retained = (*reader)->retained_count();
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
              static_cast<long long>((*reader)->FileBytes()));
  std::printf("fingerprint: %08x\n", (*reader)->pack_fingerprint());
  return 0;
}

int CmdInspect(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".kdp") {
    return InspectPackage(path);
  }
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("data array (KDF)\n");
  std::printf("shape:   %s\n", reader->shape().ToString().c_str());
  std::printf("dtype:   %s\n",
              std::string(DTypeName(reader->header().dtype)).c_str());
  std::printf("layout:  %s\n",
              reader->header().layout_kind == LayoutKind::kChunked
                  ? "chunked"
                  : "row-major");
  std::printf("bytes:   %lld (header %lld + payload)\n",
              static_cast<long long>(reader->FileBytes()),
              static_cast<long long>(reader->payload_offset()));
  return 0;
}

/// Fleet flags pulled off `kondo debloat`: either spawn `--workers N`
/// local worker processes under the campaign directory, or attach to
/// externally started workers via repeatable `--connect ADDR` (all-digit
/// ADDR = loopback TCP port, anything else = unix-domain socket path).
/// `--plan-weights KEL2` steers the planner from a prior campaign's
/// lineage store and also applies to purely local sharded runs.
struct FleetCliOptions {
  int spawn_workers = 0;
  std::vector<SocketAddress> connect;
  std::string plan_weights_path;

  bool active() const { return spawn_workers > 0 || !connect.empty(); }
};

bool FleetFrom(std::vector<std::string>* args, FleetCliOptions* fleet) {
  int64_t workers = 0;
  if (TakePositiveInt(args, "--workers", &workers) == FlagParse::kBad) {
    return false;
  }
  fleet->spawn_workers = static_cast<int>(std::min<int64_t>(workers, 256));
  for (std::string addr = TakeFlagValue(args, "--connect"); !addr.empty();
       addr = TakeFlagValue(args, "--connect")) {
    SocketAddress endpoint;
    if (addr.find_first_not_of("0123456789") == std::string::npos) {
      const long long port = std::atoll(addr.c_str());
      if (port < 1 || port > 65535) {
        std::fprintf(stderr, "invalid --connect port (want 1..65535): %s\n",
                     addr.c_str());
        return false;
      }
      endpoint.port = static_cast<int>(port);
    } else {
      endpoint.unix_path = addr;
    }
    fleet->connect.push_back(endpoint);
  }
  fleet->plan_weights_path = TakeFlagValue(args, "--plan-weights");
  if (fleet->spawn_workers > 0 && !fleet->connect.empty()) {
    std::fprintf(stderr, "--workers and --connect are exclusive\n");
    return false;
  }
  return true;
}

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
      struct stat st;
      if (::stat(worker.socket_path.c_str(), &st) == 0) {
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

/// Multi-file debloat: one campaign over Θ (optionally sharded), one
/// synthesised source array + `<file>.kdp` package per data file under
/// `out_dir`.
int CmdDebloatMultiFile(std::unique_ptr<MultiFileProgram> program,
                        const std::string& out_dir,
                        const std::string& shard_dir, uint64_t seed, int jobs,
                        int shards, int64_t max_evals, int64_t max_iter,
                        const FleetCliOptions& fleet) {
  KondoConfig config;
  config.rng_seed = seed;
  config.jobs = jobs;
  config.shards = shards;
  config.fuzz.max_evals = max_evals;
  if (max_iter > 0) {
    config.fuzz.max_iter = static_cast<int>(max_iter);
  }

  MultiKondoResult result;
  if (!shard_dir.empty()) {
    StatusOr<ShardedRunResult> sharded =
        RunShardedFromCli(*program, config, shard_dir, shards, fleet);
    if (!sharded.ok()) {
      std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
      return 1;
    }
    if (!sharded->complete) {
      std::printf("campaign paused: %d of %d shards fuzzed; rerun to "
                  "continue\n",
                  sharded->shards_fuzzed_now, sharded->shards_total);
      return 0;
    }
    result.fuzz_stats = sharded->merged.fuzz_stats;
    result.per_file_discovered = std::move(sharded->merged.per_file_discovered);
    result.per_file_approx = std::move(sharded->merged.per_file_approx);
    result.per_file_carve_stats =
        std::move(sharded->merged.per_file_carve_stats);
    std::printf("lineage: %s\n", sharded->merged_lineage_path.c_str());
  } else {
    result = RunMultiFileKondo(*program, config);
  }
  std::printf("fuzz:  %d evaluations (%d useful), stopped by %s\n",
              result.fuzz_stats.evaluations,
              result.fuzz_stats.useful_evaluations,
              StopReason(result.fuzz_stats));

  if (Status status = EnsureCampaignDirectory(out_dir); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  for (int f = 0; f < program->num_files(); ++f) {
    DataArray array(program->file_shape(f), DType::kFloat128);
    array.FillPattern(seed + static_cast<uint64_t>(f));
    DebloatedArray debloated =
        PackageDebloated(array, result.per_file_approx[static_cast<size_t>(f)]);
    const std::string file_name(program->file_name(f));
    std::printf("%s: %d hulls carved\n", file_name.c_str(),
                result.per_file_carve_stats[static_cast<size_t>(f)]
                    .final_hulls);
    PackOptions pack_options;
    pack_options.jobs = jobs;
    if (int rc = WritePackage(out_dir + "/" + file_name + ".kdp", debloated,
                              pack_options);
        rc != 0) {
      return rc;
    }
  }
  return 0;
}

int CmdDebloat(std::vector<std::string> args) {
  const std::string data_path = TakeFlagValue(&args, "--data");
  const std::string out_path = TakeFlagValue(&args, "--out");
  const std::string shard_dir = TakeFlagValue(&args, "--shard-dir");
  const bool audited = TakeFlag(&args, "--audited");
  const uint64_t seed = SeedFrom(&args);
  int jobs = 0;
  int shards = 1;
  int64_t max_evals = 0;
  int64_t max_iter = 0;
  FleetCliOptions fleet;
  if (!JobsFrom(&args, &jobs) || !ShardsFrom(&args, &shards) ||
      !MaxEvalsFrom(&args, &max_evals) || !MaxIterFrom(&args, &max_iter) ||
      !FleetFrom(&args, &fleet) || args.size() != 1 || out_path.empty()) {
    return UsageFor("debloat");
  }
  if (fleet.active() && shard_dir.empty()) {
    std::fprintf(stderr,
                 "--workers/--connect need --shard-dir (the campaign "
                 "directory is the fleet's source of truth)\n");
    return UsageFor("debloat");
  }

  if (std::unique_ptr<MultiFileProgram> multi =
          CreateMultiFileProgram(args[0]);
      multi != nullptr) {
    if (!data_path.empty() || audited) {
      return UsageFor("debloat");
    }
    return CmdDebloatMultiFile(std::move(multi), out_path, shard_dir, seed,
                               jobs, shards, max_evals, max_iter, fleet);
  }

  std::unique_ptr<Program> program = CreateProgram(args[0]);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program: %s\n", args[0].c_str());
    return 1;
  }
  if (data_path.empty()) {
    return UsageFor("debloat");
  }

  KondoConfig config = ScaledKondoConfig(program->data_shape());
  config.rng_seed = seed;
  config.jobs = jobs;
  config.shards = shards;
  config.fuzz.max_evals = max_evals;
  if (max_iter > 0) {
    config.fuzz.max_iter = static_cast<int>(max_iter);
  }

  IndexSet approx(program->data_shape());
  if (shards > 1 || !shard_dir.empty()) {
    // The chunk-range splitter partitions the single file; the merged
    // result is bit-identical to the unsharded pipeline.
    if (audited) {
      std::fprintf(stderr,
                   "--audited and --shards/--shard-dir are exclusive\n");
      return UsageFor("debloat");
    }
    const SingleFileProgramAdapter adapter(std::move(program));
    StatusOr<ShardedRunResult> sharded =
        RunShardedFromCli(adapter, config, shard_dir, shards, fleet);
    if (!sharded.ok()) {
      std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
      return 1;
    }
    if (!sharded->complete) {
      std::printf("campaign paused: %d of %d shards fuzzed; rerun to "
                  "continue\n",
                  sharded->shards_fuzzed_now, sharded->shards_total);
      return 0;
    }
    approx = std::move(sharded->merged.per_file_approx[0]);
    std::printf("fuzz:  %d evaluations (%d useful), %d hulls carved, "
                "stopped by %s\n",
                sharded->merged.fuzz_stats.evaluations,
                sharded->merged.fuzz_stats.useful_evaluations,
                sharded->merged.per_file_carve_stats[0].final_hulls,
                StopReason(sharded->merged.fuzz_stats));
  } else {
    KondoPipeline pipeline(config);
    const KondoResult result =
        audited ? pipeline.RunWithCandidateTest(
                      MakeAuditedCandidateTest(*program, data_path),
                      program->param_space(), program->data_shape())
                : pipeline.Run(*program);
    approx = result.approx;
    std::printf("fuzz:  %d evaluations (%d useful), %d hulls carved, "
                "stopped by %s\n",
                result.fuzz.stats.evaluations,
                result.fuzz.stats.useful_evaluations,
                result.carve_stats.final_hulls, StopReason(result.fuzz.stats));
  }

  StatusOr<KdfReader> reader = KdfReader::Open(data_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  StatusOr<DataArray> array = reader->ReadAll();
  if (!array.ok()) {
    std::fprintf(stderr, "%s\n", array.status().ToString().c_str());
    return 1;
  }
  PackOptions pack_options;
  pack_options.jobs = jobs;
  return WritePackage(out_path, PackageDebloated(*array, approx),
                      pack_options);
}

int CmdRepack(std::vector<std::string> args) {
  const std::string data_path = TakeFlagValue(&args, "--data");
  std::string out_path = TakeFlagValue(&args, "--out");
  int jobs = 0;
  if (!JobsFrom(&args, &jobs) || args.size() != 1 || data_path.empty()) {
    return UsageFor("repack");
  }
  if (out_path.empty()) {
    out_path = args[0];  // In-place repack (atomic tmp+rename commit).
  }
  StatusOr<DebloatedArray> updated = UnpackFile(data_path, jobs);
  if (!updated.ok()) {
    return 1;
  }
  PackOptions options;
  options.jobs = jobs;
  StatusOr<PackStats> stats =
      RepackKdpFile(args[0], out_path, *updated, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("repacked %s -> %s: %lld of %lld chunks reused, %lld "
              "re-encoded, %lld bytes on disk\n",
              args[0].c_str(), out_path.c_str(),
              static_cast<long long>(stats->chunks_reused),
              static_cast<long long>(stats->total_chunks),
              static_cast<long long>(stats->chunks_reencoded),
              static_cast<long long>(stats->file_bytes));
  return 0;
}

int CmdReplay(std::vector<std::string> args) {
  const std::string remote_path = TakeFlagValue(&args, "--remote");
  int64_t fetch_retries = 0;
  int64_t fetch_backoff_ms = 0;
  if (TakePositiveInt(&args, "--fetch-retries", &fetch_retries) ==
          FlagParse::kBad ||
      TakePositiveInt(&args, "--fetch-backoff-ms", &fetch_backoff_ms) ==
          FlagParse::kBad) {
    return UsageFor("replay");
  }
  if (args.size() < 3) {
    return UsageFor("replay");
  }
  const std::unique_ptr<Program> program = CreateProgram(args[0]);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program: %s\n", args[0].c_str());
    return 1;
  }
  StatusOr<DebloatedArray> array = UnpackFile(args[1], /*jobs=*/1);
  if (!array.ok()) {
    return 1;
  }
  ParamValue v;
  for (size_t i = 2; i < args.size(); ++i) {
    v.push_back(std::atof(args[i].c_str()));
  }
  if (static_cast<int>(v.size()) != program->param_space().num_params()) {
    std::fprintf(stderr, "expected %d parameters\n",
                 program->param_space().num_params());
    return 1;
  }

  if (!remote_path.empty()) {
    StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
        KdfRemoteSource::Open(remote_path);
    if (!remote.ok()) {
      std::fprintf(stderr, "%s\n", remote.status().ToString().c_str());
      return 1;
    }
    FetchPolicy policy;
    policy.max_attempts = 1 + static_cast<int>(fetch_retries);
    policy.backoff_micros = fetch_backoff_ms * 1000;
    FetchingRuntime runtime(*std::move(array), *std::move(remote), policy);
    const Status status = runtime.ReplayRun(*program, v);
    std::printf("replay: %s (%lld local hits, %lld remote fetches, %lld "
                "bytes pulled, %lld retries, %lld fetch failures)\n",
                status.ToString().c_str(),
                static_cast<long long>(runtime.stats().local_hits),
                static_cast<long long>(runtime.stats().remote_fetches),
                static_cast<long long>(runtime.stats().bytes_fetched),
                static_cast<long long>(runtime.stats().fetch_retries),
                static_cast<long long>(runtime.stats().fetch_failures));
    return status.ok() ? 0 : 1;
  }

  DebloatRuntime runtime(*std::move(array));
  const Status status = runtime.ReplayRun(*program, v);
  std::printf("replay: %s (%lld reads, %lld misses)\n",
              status.ToString().c_str(),
              static_cast<long long>(runtime.stats().reads),
              static_cast<long long>(runtime.stats().misses));
  return status.ok() ? 0 : 1;
}

/// Multi-file evaluate: runs the (optionally sharded) multi-file pipeline
/// and scores each file's approximation against its enumerated ground
/// truth.
int CmdEvaluateMultiFile(std::unique_ptr<MultiFileProgram> program,
                         uint64_t seed, int jobs, int shards,
                         int64_t max_evals) {
  KondoConfig config;
  config.rng_seed = seed;
  config.jobs = jobs;
  config.shards = shards;
  config.fuzz.max_evals = max_evals;
  const MultiKondoResult result = RunMultiFileKondo(*program, config);
  std::printf("fuzz:  %d evaluations (%d useful) in %d iterations, "
              "stopped by %s\n",
              result.fuzz_stats.evaluations,
              result.fuzz_stats.useful_evaluations, result.fuzz_stats.iterations,
              StopReason(result.fuzz_stats));
  const MultiIndexSets truths = program->GroundTruths();
  for (int f = 0; f < program->num_files(); ++f) {
    const IndexSet& approx = result.per_file_approx[static_cast<size_t>(f)];
    const AccuracyMetrics metrics =
        ComputeAccuracy(truths[static_cast<size_t>(f)], approx);
    std::printf("%-12s precision %.3f  recall %.3f  bloat %.1f%%  "
                "(%d hulls)\n",
                std::string(program->file_name(f)).c_str(), metrics.precision,
                metrics.recall,
                100.0 * BloatFraction(program->file_shape(f), approx),
                result.per_file_carve_stats[static_cast<size_t>(f)]
                    .final_hulls);
  }
  return 0;
}

int CmdEvaluate(std::vector<std::string> args) {
  const uint64_t seed = SeedFrom(&args);
  const bool map = TakeFlag(&args, "--map");
  int jobs = 0;
  int shards = 1;
  int64_t max_evals = 0;
  if (!JobsFrom(&args, &jobs) || !ShardsFrom(&args, &shards) ||
      !MaxEvalsFrom(&args, &max_evals) || args.size() != 1) {
    return UsageFor("evaluate");
  }
  if (std::unique_ptr<MultiFileProgram> multi =
          CreateMultiFileProgram(args[0]);
      multi != nullptr) {
    return CmdEvaluateMultiFile(std::move(multi), seed, jobs, shards,
                                max_evals);
  }
  std::unique_ptr<Program> program = CreateProgram(args[0]);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program: %s\n", args[0].c_str());
    return 1;
  }
  KondoConfig config = ScaledKondoConfig(program->data_shape());
  config.rng_seed = seed;
  config.jobs = jobs;
  config.fuzz.max_evals = max_evals;
  if (shards > 1) {
    // Route through the chunk-range splitter; the merged approximation is
    // bit-identical to the unsharded pipeline's.
    const IndexSet truth = program->GroundTruth();
    const Shape shape = program->data_shape();
    const SingleFileProgramAdapter adapter(std::move(program));
    config.shards = shards;
    const MultiKondoResult result = RunMultiFileKondo(adapter, config);
    const IndexSet& approx = result.per_file_approx[0];
    const AccuracyMetrics metrics = ComputeAccuracy(truth, approx);
    std::printf("fuzz:  %d evaluations (%d useful) across %d shards, "
                "stopped by %s\n",
                result.fuzz_stats.evaluations,
                result.fuzz_stats.useful_evaluations, shards,
                StopReason(result.fuzz_stats));
    std::printf("precision %.3f  recall %.3f  bloat %.1f%%  (%d hulls)\n",
                metrics.precision, metrics.recall,
                100.0 * BloatFraction(shape, approx),
                result.per_file_carve_stats[0].final_hulls);
    if (map) {
      std::printf("%s", RenderComparison(truth, approx).c_str());
    }
    return 0;
  }
  const KondoResult result = KondoPipeline(config).Run(*program);
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), result.approx);
  std::printf("%s", FormatCampaignReport(result, metrics).c_str());
  std::printf("bloat identified: %.1f%%\n",
              100.0 * BloatFraction(program->data_shape(), result.approx));
  if (map) {
    std::printf("%s",
                RenderComparison(program->GroundTruth(), result.approx)
                    .c_str());
  }
  return 0;
}

int CmdFuzz(std::vector<std::string> args) {
  const std::string out_path = TakeFlagValue(&args, "--out");
  const std::string resume_path = TakeFlagValue(&args, "--resume");
  const uint64_t seed = SeedFrom(&args);
  int jobs = 0;
  int shards = 1;
  int64_t max_evals = 0;
  int64_t max_iter = 0;
  if (!JobsFrom(&args, &jobs) || !ShardsFrom(&args, &shards) ||
      !MaxEvalsFrom(&args, &max_evals) || !MaxIterFrom(&args, &max_iter) ||
      args.size() != 1 || out_path.empty()) {
    return UsageFor("fuzz");
  }
  std::unique_ptr<Program> program = CreateProgram(args[0]);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program: %s\n", args[0].c_str());
    return 1;
  }
  const Shape shape = program->data_shape();
  KondoConfig config = ScaledKondoConfig(shape);
  config.rng_seed = seed;
  config.jobs = jobs;
  config.fuzz.max_evals = max_evals;
  if (max_iter > 0) {
    config.fuzz.max_iter = static_cast<int>(max_iter);
  }

  FuzzResult result;
  if (shards > 1) {
    // Sharded campaign (in memory): the merge reconstitutes the exact
    // serial FuzzResult — seeds from the replicated schedule, discovered
    // set as the union over the shard partition.
    const SingleFileProgramAdapter adapter(std::move(program));
    ShardOptions options;
    options.shards = shards;
    StatusOr<ShardedRunResult> sharded =
        RunShardedCampaign(adapter, config, options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
      return 1;
    }
    result.discovered = std::move(sharded->merged.per_file_discovered[0]);
    result.seeds = std::move(sharded->merged.seeds);
    result.stats = sharded->merged.fuzz_stats;
  } else {
    CampaignExecutor executor(jobs);
    FuzzSchedule schedule(program->param_space(), shape, config.fuzz, seed);
    result = schedule.Run(executor, MakeCandidateTest(*program));
  }
  CampaignState state = MakeCampaignState(shape, result);

  if (!resume_path.empty()) {
    StatusOr<CampaignState> previous = LoadCampaignState(resume_path);
    if (!previous.ok()) {
      std::fprintf(stderr, "%s\n", previous.status().ToString().c_str());
      return 1;
    }
    MergeCampaignState(&*previous, state);
    state = *std::move(previous);
  }
  if (Status status = SaveCampaignState(out_path, state); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("campaign: %d evaluations this run (stopped by %s); state now "
              "holds %zu seeds and %zu discovered offsets -> %s\n",
              result.stats.evaluations, StopReason(result.stats),
              state.seeds.size(), state.discovered.size(), out_path.c_str());
  return 0;
}

int CmdCarve(std::vector<std::string> args) {
  const std::string state_path = TakeFlagValue(&args, "--state");
  const std::string center = TakeFlagValue(&args, "--center");
  const std::string boundary = TakeFlagValue(&args, "--boundary");
  if (args.size() != 1 || state_path.empty()) {
    return UsageFor("carve");
  }
  const std::unique_ptr<Program> program = CreateProgram(args[0]);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program: %s\n", args[0].c_str());
    return 1;
  }
  StatusOr<CampaignState> state = LoadCampaignState(state_path);
  if (!state.ok()) {
    std::fprintf(stderr, "%s\n", state.status().ToString().c_str());
    return 1;
  }
  if (!(state->shape == program->data_shape())) {
    std::fprintf(stderr, "campaign shape %s does not match program %s\n",
                 state->shape.ToString().c_str(),
                 program->data_shape().ToString().c_str());
    return 1;
  }
  CarveConfig config = ScaledKondoConfig(program->data_shape()).carve;
  if (!center.empty()) {
    config.center_d_thresh = std::atof(center.c_str());
  }
  if (!boundary.empty()) {
    config.boundary_d_thresh = std::atof(boundary.c_str());
  }
  CarveStats stats;
  const IndexSet approx =
      Carver(config).Carve(state->discovered, &stats).Rasterize();
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), approx);
  std::printf("carved %d hulls from %zu discovered offsets (%d merges)\n",
              stats.final_hulls, state->discovered.size(),
              stats.merge_operations);
  std::printf("precision %.3f, recall %.3f, subset %lld of %lld\n",
              metrics.precision, metrics.recall,
              static_cast<long long>(metrics.approx_size),
              static_cast<long long>(
                  program->data_shape().NumElements()));
  return 0;
}

// ---------------------------------------------------------- provenance --

int CmdProvenanceCompact(std::vector<std::string> args) {
  const std::string block = TakeFlagValue(&args, "--block");
  if (args.size() != 2) {
    return UsageFor("provenance");
  }
  Kel2WriterOptions options;
  if (!block.empty()) {
    if (!ParseInt64(block, &options.events_per_block) ||
        options.events_per_block <= 0) {
      std::fprintf(stderr, "invalid --block value: %s\n", block.c_str());
      return 1;
    }
  }
  StatusOr<CompactStats> stats =
      CompactLineageStore(args[0], args[1], options);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("compacted %s -> %s: %lld events in %lld blocks, "
              "%lld -> %lld bytes (input/output %.2fx)\n",
              args[0].c_str(), args[1].c_str(),
              static_cast<long long>(stats->events),
              static_cast<long long>(stats->blocks),
              static_cast<long long>(stats->input_bytes),
              static_cast<long long>(stats->output_bytes), stats->Ratio());
  return 0;
}

int CmdProvenanceQuery(std::vector<std::string> args) {
  const std::string range = TakeFlagValue(&args, "--range");
  const std::string file = TakeFlagValue(&args, "--file");
  const bool runs_only = TakeFlag(&args, "--runs");
  if (args.size() != 1 || range.empty()) {
    return UsageFor("provenance");
  }
  int64_t begin = 0, end = 0;
  if (!ParseRange(range, &begin, &end)) {
    std::fprintf(stderr, "invalid --range (want A:B with A < B): %s\n",
                 range.c_str());
    return 1;
  }
  int64_t file_id = 1;
  if (!file.empty() && !ParseInt64(file, &file_id)) {
    std::fprintf(stderr, "invalid --file value: %s\n", file.c_str());
    return 1;
  }

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(args[0]);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  ProvenanceQuery query(&*reader);
  StatusOr<std::vector<Event>> events =
      query.EventsOverlapping(file_id, begin, end);
  if (!events.ok()) {
    std::fprintf(stderr, "%s\n", events.status().ToString().c_str());
    return 1;
  }
  std::vector<int64_t> pids;
  for (const Event& event : *events) {
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
              events->size(), pids.size(), static_cast<long long>(begin),
              static_cast<long long>(end),
              static_cast<long long>(stats.blocks_decoded),
              static_cast<long long>(reader->NumBlocks()),
              static_cast<long long>(stats.blocks_skipped));
  return 0;
}

int CmdProvenanceStats(const std::string& path) {
  StatusOr<int64_t> file_bytes = FileSizeBytes(path);
  if (!file_bytes.ok()) {
    std::fprintf(stderr, "%s\n", file_bytes.status().ToString().c_str());
    return 1;
  }
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("KEL2 store: %lld events in %lld blocks, %lld bytes\n",
              static_cast<long long>(reader->NumEvents()),
              static_cast<long long>(reader->NumBlocks()),
              static_cast<long long>(*file_bytes));
  if (reader->NumEvents() > 0) {
    std::printf("density:    %.2f bytes/event (%.2fx smaller than 40-byte "
                "fixed-width records)\n",
                static_cast<double>(reader->BlockBytes()) /
                    static_cast<double>(reader->NumEvents()),
                40.0 * static_cast<double>(reader->NumEvents()) /
                    static_cast<double>(reader->BlockBytes()));
  }
  // Distinct file ids come from the decoded events: a block's descriptor
  // range [min_file_id, max_file_id] may span ids no event carries.
  std::set<int64_t> file_ids;
  for (size_t b = 0; b < reader->blocks().size(); ++b) {
    StatusOr<std::vector<Event>> events = reader->DecodeBlock(b);
    if (!events.ok()) {
      std::fprintf(stderr, "%s\n", events.status().ToString().c_str());
      return 1;
    }
    for (const Event& event : *events) {
      file_ids.insert(event.id.file_id);
    }
  }
  ProvenanceQuery query(&*reader);
  for (int64_t file_id : file_ids) {
    StatusOr<std::map<int64_t, int64_t>> coverage =
        query.PerRunCoverage(file_id);
    if (!coverage.ok()) {
      std::fprintf(stderr, "%s\n", coverage.status().ToString().c_str());
      return 1;
    }
    for (const auto& [pid, bytes] : *coverage) {
      std::printf("file %lld run %lld: %lld distinct bytes accessed\n",
                  static_cast<long long>(file_id),
                  static_cast<long long>(pid),
                  static_cast<long long>(bytes));
    }
  }
  return 0;
}

int CmdProvenance(std::vector<std::string> args) {
  if (args.empty()) {
    return UsageFor("provenance");
  }
  const std::string sub = args[0];
  args.erase(args.begin());
  if (sub == "compact") {
    return CmdProvenanceCompact(std::move(args));
  }
  if (sub == "query") {
    return CmdProvenanceQuery(std::move(args));
  }
  if (sub == "stats" && args.size() == 1) {
    return CmdProvenanceStats(args[0]);
  }
  return UsageFor("provenance");
}

/// Outcome of pulling `--socket PATH` / `--port N` out of an argument
/// list. Exactly one must be given; a malformed port is a usage error.
bool AddressFrom(std::vector<std::string>* args, SocketAddress* address) {
  const std::string socket_path = TakeFlagValue(args, "--socket");
  int64_t port = 0;
  if (TakePositiveInt(args, "--port", &port) == FlagParse::kBad) {
    return false;
  }
  if (socket_path.empty() == (port == 0)) {
    std::fprintf(stderr, "want exactly one of --socket PATH or --port N\n");
    return false;
  }
  if (!socket_path.empty()) {
    address->unix_path = socket_path;
  } else {
    if (port > 65535) {
      std::fprintf(stderr, "invalid --port value (want 1..65535): %lld\n",
                   static_cast<long long>(port));
      return false;
    }
    address->port = static_cast<int>(port);
  }
  return true;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void ServeSignalHandler(int /*signum*/) { g_serve_stop = 1; }

/// Runs a daemon (`kondo serve`, `kondo worker`) in the foreground: starts
/// it, prints "<label> <address> (<detail>)", serves until SIGTERM or
/// SIGINT, then stops it. Returns false, with the error printed, if the
/// daemon does not start.
template <typename Daemon>
bool RunDaemonUntilSignal(Daemon& daemon, const char* label,
                         const std::string& detail) {
  const Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return false;
  }
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
  return true;
}

int CmdServe(std::vector<std::string> args) {
  ServeOptions options;
  if (!AddressFrom(&args, &options.address)) {
    return UsageFor("serve");
  }
  const std::string pool = TakeFlagValue(&args, "--pool");
  if (!pool.empty()) {
    options.pool_root = pool;
  }
  int jobs = 0;
  if (!JobsFrom(&args, &jobs)) {
    return UsageFor("serve");
  }
  options.jobs = jobs;
  int64_t cache_mb = 0, max_inflight = 0, queue = 0;
  if (TakePositiveInt(&args, "--cache-mb", &cache_mb) == FlagParse::kBad ||
      TakePositiveInt(&args, "--max-inflight", &max_inflight) ==
          FlagParse::kBad ||
      TakePositiveInt(&args, "--queue", &queue) == FlagParse::kBad) {
    return UsageFor("serve");
  }
  if (cache_mb > 0) options.cache_bytes = cache_mb << 20;
  if (max_inflight > 0) {
    options.max_inflight = static_cast<int>(max_inflight);
  }
  if (queue > 0) options.queue_capacity = static_cast<int>(queue);
  if (!args.empty()) {
    return UsageFor("serve");
  }

  KondoServer server(options);
  if (!RunDaemonUntilSignal(
          server, "listening on",
          StrCat("pool ", options.pool_root, ", ", options.jobs, " jobs"))) {
    return 1;
  }
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
  return 0;
}

/// A fleet worker process: binds, serves shard campaigns until SIGTERM or
/// SIGINT, then drains and reports. `debloat --workers N` spawns exactly
/// this command; operators run it by hand for `--connect` fleets.
int CmdWorker(std::vector<std::string> args) {
  FleetWorkerOptions options;
  if (!AddressFrom(&args, &options.address)) {
    return UsageFor("worker");
  }
  const std::string scratch = TakeFlagValue(&args, "--scratch");
  if (!scratch.empty()) {
    options.scratch_dir = scratch;
  }
  int jobs = 0;
  if (!JobsFrom(&args, &jobs) || !args.empty()) {
    return UsageFor("worker");
  }
  options.jobs = jobs;

  FleetWorker worker(options);
  if (!RunDaemonUntilSignal(worker, "worker listening on",
                            StrCat("scratch ", options.scratch_dir, ", ",
                                   options.jobs, " jobs"))) {
    return 1;
  }
  std::printf("worker shutdown: %lld shard(s) served\n",
              static_cast<long long>(worker.shards_served()));
  return 0;
}

int CmdClientFetch(std::vector<std::string> args) {
  SocketAddress address;
  const std::string range = TakeFlagValue(&args, "--range");
  if (!AddressFrom(&args, &address) || args.size() != 1 || range.empty()) {
    return UsageFor("client");
  }
  FetchSubsetRequest request;
  request.artifact = args[0];
  if (!ParseRange(range, &request.begin, &request.end)) {
    std::fprintf(stderr, "invalid --range (want A:B with A < B): %s\n",
                 range.c_str());
    return 1;
  }
  StatusOr<std::unique_ptr<KpcClient>> client = KpcClient::Connect(address);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  StatusOr<FetchSubsetResponse> response = (*client)->FetchSubset(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  size_t value_pos = 0;
  for (size_t i = 0; i < response->present.size(); ++i) {
    const long long linear = static_cast<long long>(request.begin) +
                             static_cast<long long>(i);
    if (response->present[i] != 0) {
      std::printf("%lld: %.17g\n", linear, response->values[value_pos++]);
    } else {
      std::printf("%lld: (null)\n", linear);
    }
  }
  std::printf("fetched [%lld,%lld) of %s: %zu present of %zu "
              "(fingerprint %lld bytes crc %08x)\n",
              static_cast<long long>(request.begin),
              static_cast<long long>(request.end), request.artifact.c_str(),
              response->values.size(), response->present.size(),
              static_cast<long long>(response->fingerprint_bytes),
              response->fingerprint_crc);
  return 0;
}

int CmdClientQuery(std::vector<std::string> args) {
  SocketAddress address;
  const std::string range = TakeFlagValue(&args, "--range");
  const std::string file = TakeFlagValue(&args, "--file");
  const bool runs_only = TakeFlag(&args, "--runs");
  if (!AddressFrom(&args, &address) || args.size() != 1 || range.empty()) {
    return UsageFor("client");
  }
  QueryRequest request;
  request.store = args[0];
  request.runs_only = runs_only ? 1 : 0;
  if (!ParseRange(range, &request.begin, &request.end)) {
    std::fprintf(stderr, "invalid --range (want A:B with A < B): %s\n",
                 range.c_str());
    return 1;
  }
  if (!file.empty() && !ParseInt64(file, &request.file_id)) {
    std::fprintf(stderr, "invalid --file value: %s\n", file.c_str());
    return 1;
  }
  StatusOr<std::unique_ptr<KpcClient>> client = KpcClient::Connect(address);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  StatusOr<QueryResult> result = (*client)->QueryProvenance(request);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const Event& event : result->events) {
    std::printf("%s\n", event.ToString().c_str());
  }
  if (runs_only) {
    for (int64_t pid : result->done.runs) {
      std::printf("%lld\n", static_cast<long long>(pid));
    }
  }
  std::printf("%lld events, %zu runs in [%lld,%lld) — decoded %lld of %lld "
              "blocks (%lld skipped in-situ)\n",
              static_cast<long long>(result->done.events_total),
              result->done.runs.size(),
              static_cast<long long>(request.begin),
              static_cast<long long>(request.end),
              static_cast<long long>(result->done.blocks_decoded),
              static_cast<long long>(result->done.blocks_considered),
              static_cast<long long>(result->done.blocks_skipped));
  return 0;
}

int CmdClientSubmit(std::vector<std::string> args) {
  SocketAddress address;
  SubmitRequest request;
  request.seed = static_cast<int64_t>(SeedFrom(&args));
  if (!MaxEvalsFrom(&args, &request.max_evals) ||
      !MaxIterFrom(&args, &request.max_iter) ||
      !AddressFrom(&args, &address) || args.size() != 1) {
    return UsageFor("client");
  }
  request.program = args[0];
  StatusOr<std::unique_ptr<KpcClient>> client = KpcClient::Connect(address);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  StatusOr<SubmitResponse> response = (*client)->SubmitCampaign(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  if (response->accepted == 0) {
    std::fprintf(stderr, "rejected: %s (queue depth %lld)\n",
                 response->message.c_str(),
                 static_cast<long long>(response->queue_depth));
    return 1;
  }
  std::printf("accepted job %lld (queue depth %lld)\n",
              static_cast<long long>(response->job_id),
              static_cast<long long>(response->queue_depth));
  return 0;
}

int CmdClientStats(std::vector<std::string> args) {
  SocketAddress address;
  if (!AddressFrom(&args, &address) || !args.empty()) {
    return UsageFor("client");
  }
  StatusOr<std::unique_ptr<KpcClient>> client = KpcClient::Connect(address);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  StatusOr<ServeStatsSnapshot> stats = (*client)->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("cache: %lld hits, %lld misses, %lld evictions (%lld stale), "
              "%lld entries, %lld of %lld bytes\n",
              static_cast<long long>(stats->cache_hits),
              static_cast<long long>(stats->cache_misses),
              static_cast<long long>(stats->cache_evictions),
              static_cast<long long>(stats->cache_stale_evictions),
              static_cast<long long>(stats->cache_entries),
              static_cast<long long>(stats->cache_bytes),
              static_cast<long long>(stats->cache_capacity_bytes));
  std::printf("sessions: %lld accepted, %lld active, %lld requests, "
              "%lld protocol errors\n",
              static_cast<long long>(stats->sessions_accepted),
              static_cast<long long>(stats->sessions_active),
              static_cast<long long>(stats->requests_total),
              static_cast<long long>(stats->protocol_errors));
  std::printf("campaigns: %lld submitted, %lld rejected, %lld completed, "
              "%lld failed, queue %lld, in-flight %lld, %lld lineage "
              "bytes\n",
              static_cast<long long>(stats->campaigns_submitted),
              static_cast<long long>(stats->campaigns_rejected),
              static_cast<long long>(stats->campaigns_completed),
              static_cast<long long>(stats->campaigns_failed),
              static_cast<long long>(stats->campaign_queue_depth),
              static_cast<long long>(stats->campaign_inflight),
              static_cast<long long>(stats->lineage_bytes_written));
  std::printf("stores: %lld open, %lld reopened\n",
              static_cast<long long>(stats->stores_open),
              static_cast<long long>(stats->stores_reopened));
  for (int verb = 0; verb < kKpcVerbCount; ++verb) {
    const VerbLatency& latency = stats->verbs[verb];
    if (latency.count == 0) continue;
    std::printf("%s: %lld requests, mean %.1f us, max %lld us\n",
                KpcVerbName(verb), static_cast<long long>(latency.count),
                static_cast<double>(latency.total_micros) /
                    static_cast<double>(latency.count),
                static_cast<long long>(latency.max_micros));
  }
  return 0;
}

int CmdClient(std::vector<std::string> args) {
  if (args.empty()) {
    return UsageFor("client");
  }
  const std::string sub = args[0];
  args.erase(args.begin());
  if (sub == "fetch") {
    return CmdClientFetch(std::move(args));
  }
  if (sub == "query") {
    return CmdClientQuery(std::move(args));
  }
  if (sub == "submit") {
    return CmdClientSubmit(std::move(args));
  }
  if (sub == "stats") {
    return CmdClientStats(std::move(args));
  }
  return UsageFor("client");
}

int CmdBlast(std::vector<std::string> args) {
  BlastOptions options;
  const std::string artifact = TakeFlagValue(&args, "--artifact");
  const std::string range = TakeFlagValue(&args, "--range");
  int64_t clients = 0, requests = 0;
  if (!AddressFrom(&args, &options.address) || artifact.empty() ||
      TakePositiveInt(&args, "--clients", &clients) == FlagParse::kBad ||
      TakePositiveInt(&args, "--requests", &requests) == FlagParse::kBad ||
      !args.empty()) {
    return UsageFor("blast");
  }
  options.artifact = artifact;
  if (clients > 0) options.clients = static_cast<int>(clients);
  if (requests > 0) options.requests = static_cast<int>(requests);
  if (!range.empty() &&
      !ParseRange(range, &options.begin, &options.end)) {
    std::fprintf(stderr, "invalid --range (want A:B with A < B): %s\n",
                 range.c_str());
    return 1;
  }
  StatusOr<BlastReport> report = RunBlast(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%d clients x %d requests against %s [%lld,%lld)\n",
              options.clients, options.requests, options.artifact.c_str(),
              static_cast<long long>(options.begin),
              static_cast<long long>(options.end));
  std::printf("%lld ok, %lld failed in %.3fs — %.0f req/s, %lld bytes, "
              "latency p50/p90/p99/max %lld/%lld/%lld/%lld us, "
              "responses %s\n",
              static_cast<long long>(report->ok_requests),
              static_cast<long long>(report->failed_requests),
              report->elapsed_seconds, report->throughput_rps,
              static_cast<long long>(report->bytes_received),
              static_cast<long long>(report->p50_micros),
              static_cast<long long>(report->p90_micros),
              static_cast<long long>(report->p99_micros),
              static_cast<long long>(report->max_micros),
              report->responses_identical ? "identical" : "DIVERGENT");
  return report->failed_requests == 0 && report->responses_identical ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "programs" && args.empty()) {
    return CmdPrograms();
  }
  if (command == "spec" && args.size() == 1) {
    return CmdSpec(args[0]);
  }
  if (command == "make-data") {
    return CmdMakeData(std::move(args));
  }
  if (command == "inspect" && args.size() == 1) {
    return CmdInspect(args[0]);
  }
  if (command == "debloat") {
    return CmdDebloat(std::move(args));
  }
  if (command == "replay") {
    return CmdReplay(std::move(args));
  }
  if (command == "evaluate") {
    return CmdEvaluate(std::move(args));
  }
  if (command == "fuzz") {
    return CmdFuzz(std::move(args));
  }
  if (command == "carve") {
    return CmdCarve(std::move(args));
  }
  if (command == "repack") {
    return CmdRepack(std::move(args));
  }
  if (command == "provenance") {
    return CmdProvenance(std::move(args));
  }
  if (command == "serve") {
    return CmdServe(std::move(args));
  }
  if (command == "worker") {
    return CmdWorker(std::move(args));
  }
  if (command == "client") {
    return CmdClient(std::move(args));
  }
  if (command == "blast") {
    return CmdBlast(std::move(args));
  }
  return Usage();
}

}  // namespace
}  // namespace kondo::cli

int main(int argc, char** argv) { return kondo::cli::Main(argc, argv); }
