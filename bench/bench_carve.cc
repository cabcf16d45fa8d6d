// Carve-stage benchmark: real compute, no sleep model. For ARD (192x288x512)
// and PRL3D (64^3) it runs the fuzz campaign once with the debloat
// workloads' configuration (ScaledKondoConfig, campaign seed 1, the
// offset-printing debloat test, jobs = min(4, nproc)), then times
// Algorithm 2 on the discovered points in two ways:
//
//   * a stage driver that replays the carve through public calls only:
//       split      bucket the points into cell_size cells
//       cells      Hull::Build per non-empty cell (serial)
//       scan       every merge round's lexicographic Carver::Close scan
//       merges     Hull::Build over each merged pair's vertices
//       rasterize  Hull::RasterizeInto per final hull (serial)
//   * the library entry points the pipeline calls:
//     Carver::Carve(points, executor) and Carver::Rasterize(carved,
//     executor), at jobs 1 and at the bench jobs.
//
// Gate: the stage driver and every library leg give the same digest —
// FNV-1a over every hull's vertex bits, then the rasterised subset's sorted
// linear ids. Each time is the best of kReps repetitions. Emits
// BENCH_carve.json in the working directory.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "array/index_set.h"
#include "carve/carver.h"
#include "common/stopwatch.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "exec/campaign_executor.h"
#include "fuzz/fuzz_schedule.h"
#include "geom/hull.h"
#include "workloads/real_app_programs.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

constexpr uint64_t kCampaignSeed = 1;
constexpr int kReps = 3;

struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;

  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
};

uint64_t CarveDigest(const std::vector<Hull>& hulls, const IndexSet& subset) {
  Digest digest;
  digest.Add(static_cast<uint64_t>(hulls.size()));
  for (const Hull& hull : hulls) {
    digest.Add(static_cast<uint64_t>(hull.vertices().size()));
    for (const Vec3& v : hull.vertices()) {
      digest.Add(v.x);
      digest.Add(v.y);
      digest.Add(v.z);
    }
  }
  for (int64_t id : subset.ToSortedLinearIds()) {
    digest.Add(static_cast<uint64_t>(id));
  }
  return digest.h;
}

/// Seconds of each stage-driver stage, plus what it produced.
struct StageRun {
  double split_s = 0.0;
  double cells_s = 0.0;
  double scan_s = 0.0;
  double merges_s = 0.0;
  double rasterize_s = 0.0;
  int cells = 0;
  int merges = 0;
  int hulls = 0;
  int64_t approx_points = 0;
  uint64_t digest = 0;

  double carve_s() const { return split_s + cells_s + scan_s + merges_s; }
};

/// Algorithm 2, each stage timed separately. Every merge round scans from
/// row 0, so `scan` is the cost of CLOSE over full lexicographic scans;
/// Carver::Carve re-tests only the rows a merge can have changed.
StageRun RunStages(const Carver& carver, const IndexSet& points) {
  const Shape& shape = points.shape();
  const int rank = shape.rank();
  const int64_t cell_size = carver.config().cell_size;
  StageRun run;

  Stopwatch watch;
  std::map<std::vector<int64_t>, std::vector<Vec3>> cells;
  points.ForEach([rank, cell_size, &cells](const Index& index) {
    std::vector<int64_t> coord(3, 0);
    for (int d = 0; d < rank; ++d) {
      coord[static_cast<size_t>(d)] = index[d] / cell_size;
    }
    cells[coord].push_back(Vec3::FromIndex(index));
  });
  run.split_s = watch.ElapsedSeconds();

  watch.Reset();
  std::vector<Hull> hulls;
  hulls.reserve(cells.size());
  for (const auto& [coord, cell_points] : cells) {
    hulls.push_back(Hull::Build(cell_points, rank));
  }
  run.cells_s = watch.ElapsedSeconds();
  run.cells = static_cast<int>(hulls.size());

  const int max_rounds = carver.config().max_merge_rounds;
  for (int round = 0; round < max_rounds; ++round) {
    watch.Reset();
    size_t pair_i = hulls.size();
    size_t pair_j = hulls.size();
    for (size_t i = 0; i + 1 < hulls.size() && pair_i == hulls.size(); ++i) {
      for (size_t j = i + 1; j < hulls.size(); ++j) {
        if (carver.Close(hulls[i], hulls[j])) {
          pair_i = i;
          pair_j = j;
          break;
        }
      }
    }
    run.scan_s += watch.ElapsedSeconds();
    if (pair_i == hulls.size()) {
      break;
    }
    watch.Reset();
    std::vector<Vec3> union_vertices = hulls[pair_i].vertices();
    union_vertices.insert(union_vertices.end(),
                          hulls[pair_j].vertices().begin(),
                          hulls[pair_j].vertices().end());
    Hull merged = Hull::Build(union_vertices, rank);
    hulls.erase(hulls.begin() + static_cast<std::ptrdiff_t>(pair_j));
    hulls[pair_i] = std::move(merged);
    run.merges_s += watch.ElapsedSeconds();
    ++run.merges;
  }
  run.hulls = static_cast<int>(hulls.size());

  watch.Reset();
  IndexSet subset(shape);
  for (const Hull& hull : hulls) {
    hull.RasterizeInto(&subset);
  }
  run.rasterize_s = watch.ElapsedSeconds();
  run.approx_points = static_cast<int64_t>(subset.size());
  run.digest = CarveDigest(hulls, subset);
  return run;
}

/// Carver::Carve + Carver::Rasterize over an executor of `jobs` workers.
struct LibraryRun {
  int jobs = 0;
  double carve_s = 0.0;
  double rasterize_s = 0.0;
  uint64_t digest = 0;
};

LibraryRun RunLibrary(const Carver& carver, const IndexSet& points,
                      int jobs) {
  CampaignExecutor executor(jobs);
  LibraryRun run;
  run.jobs = jobs;
  Stopwatch watch;
  const CarvedSubset carved = carver.Carve(points, executor);
  run.carve_s = watch.ElapsedSeconds();
  watch.Reset();
  const IndexSet subset = Carver::Rasterize(carved, executor);
  run.rasterize_s = watch.ElapsedSeconds();
  run.digest = CarveDigest(carved.hulls(), subset);
  return run;
}

struct ProgramResult {
  std::string name;
  int64_t discovered = 0;
  double fuzz_s = 0.0;
  StageRun stages;
  std::vector<LibraryRun> library;
  bool identical = true;
};

/// Keeps the smallest time of each stage; outputs are equal across reps
/// (the digest gate checks it).
void KeepBest(const StageRun& candidate, StageRun* best, bool first) {
  if (first) {
    *best = candidate;
    return;
  }
  best->split_s = std::min(best->split_s, candidate.split_s);
  best->cells_s = std::min(best->cells_s, candidate.cells_s);
  best->scan_s = std::min(best->scan_s, candidate.scan_s);
  best->merges_s = std::min(best->merges_s, candidate.merges_s);
  best->rasterize_s = std::min(best->rasterize_s, candidate.rasterize_s);
}

ProgramResult BenchProgram(const std::string& name,
                           std::unique_ptr<Program> program, int jobs) {
  ProgramResult result;
  result.name = name;
  const Shape& shape = program->data_shape();
  KondoConfig config = ScaledKondoConfig(shape);
  config.rng_seed = kCampaignSeed;

  Stopwatch watch;
  CampaignExecutor fuzz_executor(jobs);
  FuzzSchedule schedule(program->param_space(), shape, config.fuzz,
                        config.rng_seed);
  const FuzzResult fuzz =
      schedule.Run(fuzz_executor, MakeCandidateTest(*program));
  result.fuzz_s = watch.ElapsedSeconds();
  result.discovered = static_cast<int64_t>(fuzz.discovered.size());

  const Carver carver(config.carve);
  for (int rep = 0; rep < kReps; ++rep) {
    const StageRun stages = RunStages(carver, fuzz.discovered);
    KeepBest(stages, &result.stages, rep == 0);
    result.identical =
        result.identical && stages.digest == result.stages.digest;
  }
  std::vector<int> legs = {1};
  if (jobs > 1) {
    legs.push_back(jobs);
  }
  for (int leg_jobs : legs) {
    LibraryRun best;
    for (int rep = 0; rep < kReps; ++rep) {
      const LibraryRun run = RunLibrary(carver, fuzz.discovered, leg_jobs);
      result.identical =
          result.identical && run.digest == result.stages.digest;
      if (rep == 0) {
        best = run;
      } else {
        best.carve_s = std::min(best.carve_s, run.carve_s);
        best.rasterize_s = std::min(best.rasterize_s, run.rasterize_s);
      }
    }
    result.library.push_back(best);
  }

  const StageRun& s = result.stages;
  std::printf(
      "%-6s discovered=%lld fuzz=%.2fs | split=%.3fs cells=%.3fs (%d) "
      "scan=%.3fs merges=%.3fs (%d) rasterize=%.3fs -> %d hulls, %lld "
      "points, digest=%016llx\n",
      name.c_str(), static_cast<long long>(result.discovered), result.fuzz_s,
      s.split_s, s.cells_s, s.cells, s.scan_s, s.merges_s, s.merges,
      s.rasterize_s, s.hulls, static_cast<long long>(s.approx_points),
      static_cast<unsigned long long>(s.digest));
  for (const LibraryRun& run : result.library) {
    std::printf("%-6s jobs=%d Carver::Carve=%.3fs Carver::Rasterize=%.3fs\n",
                name.c_str(), run.jobs, run.carve_s, run.rasterize_s);
  }
  return result;
}

void WriteJson(const std::vector<ProgramResult>& results, int jobs,
               const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"carve\",\n  \"jobs\": %d,\n"
               "  \"reps\": %d,\n  \"programs\": [\n", jobs, kReps);
  for (size_t p = 0; p < results.size(); ++p) {
    const ProgramResult& r = results[p];
    const StageRun& s = r.stages;
    std::fprintf(
        f,
        "    {\"program\": \"%s\", \"discovered\": %lld, \"fuzz_s\": %.4f,\n"
        "     \"stages\": {\"split_s\": %.4f, \"cells_s\": %.4f, "
        "\"scan_s\": %.4f, \"merges_s\": %.4f, \"carve_s\": %.4f, "
        "\"rasterize_s\": %.4f},\n"
        "     \"cells\": %d, \"merges\": %d, \"hulls\": %d, "
        "\"approx_points\": %lld, \"digest\": \"%016llx\", "
        "\"identical\": %s,\n     \"library\": [",
        r.name.c_str(), static_cast<long long>(r.discovered), r.fuzz_s,
        s.split_s, s.cells_s, s.scan_s, s.merges_s, s.carve_s(),
        s.rasterize_s, s.cells, s.merges, s.hulls,
        static_cast<long long>(s.approx_points),
        static_cast<unsigned long long>(s.digest),
        r.identical ? "true" : "false");
    for (size_t i = 0; i < r.library.size(); ++i) {
      const LibraryRun& run = r.library[i];
      std::fprintf(f,
                   "%s{\"jobs\": %d, \"carve_s\": %.4f, "
                   "\"rasterize_s\": %.4f}",
                   i == 0 ? "" : ", ", run.jobs, run.carve_s,
                   run.rasterize_s);
    }
    std::fprintf(f, "]}%s\n", p + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run() {
  const int jobs = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<ProgramResult> results;
  results.push_back(
      BenchProgram("ARD", std::make_unique<ArdProgram>(8), jobs));
  results.push_back(
      BenchProgram("PRL3D", CreateProgram("PRL3D"), jobs));
  WriteJson(results, jobs, "BENCH_carve.json");

  bool ok = true;
  for (const ProgramResult& r : results) {
    if (!r.identical) {
      std::fprintf(stderr,
                   "FAIL: %s carve digests differ across the stage driver "
                   "and the Carver legs\n",
                   r.name.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kondo

int main() { return kondo::Run(); }
