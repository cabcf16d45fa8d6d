// Ablations over Kondo's design choices (DESIGN.md §7) and the Section VI
// extensions:
//
//   A. CLOSE predicate: conjunctive (paper) vs disjunctive merging.
//   B. Carver cell size.
//   C. Element-granular vs chunk-granular debloating (§VI).
//   D. Kondo+AFL hybrid top-up (§VI future work): recall repair.
//   E. Remote fetch-on-miss (§VI): round-trips needed for recall-1 replays.
//   F. Conjunctive (octagon) invariant inference (§VII) vs Kondo's
//      disjunctive hulls, on the same fuzz campaign.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "array/kdf_file.h"
#include "baselines/invariant_baseline.h"
#include "bench/bench_util.h"
#include "carve/chunk_subset.h"
#include "core/ensemble.h"
#include "core/hybrid.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"

namespace kondo {
namespace {

void AblateCloseMode() {
  std::printf("--- A. CLOSE: boundary AND centre (paper) vs OR ---\n");
  std::printf("%-7s %22s %22s\n", "prog", "AND prec/recall",
              "OR prec/recall");
  for (const std::string& name :
       {std::string("CS1"), std::string("CS3"), std::string("PRL"),
        std::string("LDC")}) {
    const std::unique_ptr<Program> program = CreateProgram(name);
    program->GroundTruth();
    double values[2][2];
    for (int mode = 0; mode < 2; ++mode) {
      KondoConfig config;
      config.carve.close_mode = mode == 0 ? CloseMode::kBoundaryAndCenter
                                          : CloseMode::kBoundaryOrCenter;
      const bench::ToolOutcome outcome =
          bench::RunKondoOnce(*program, 1, 0.0, config);
      values[mode][0] = outcome.precision;
      values[mode][1] = outcome.recall;
    }
    std::printf("%-7s %10.3f / %-9.3f %10.3f / %-9.3f\n", name.c_str(),
                values[0][0], values[0][1], values[1][0], values[1][1]);
  }
  std::printf("\n");
}

void AblateCellSize() {
  std::printf("--- B. carver cell size (CS, paper default 16) ---\n");
  std::printf("%8s %10s %10s %12s %12s\n", "cell", "precision", "recall",
              "init hulls", "final hulls");
  const std::unique_ptr<Program> program = CreateProgram("CS");
  const IndexSet& truth = program->GroundTruth();
  // One shared fuzz campaign: isolate the carver.
  FuzzSchedule schedule(program->param_space(), program->data_shape(),
                        FuzzConfig{}, /*rng_seed=*/1);
  const FuzzResult fuzz = schedule.Run(MakeDebloatTest(*program));
  for (int64_t cell : {4, 8, 16, 32, 64}) {
    CarveConfig config;
    config.cell_size = cell;
    CarveStats stats;
    const IndexSet approx =
        Carver(config).Carve(fuzz.discovered, &stats).Rasterize();
    const AccuracyMetrics metrics = ComputeAccuracy(truth, approx);
    std::printf("%8lld %10.3f %10.3f %12d %12d\n",
                static_cast<long long>(cell), metrics.precision,
                metrics.recall, stats.initial_hulls, stats.final_hulls);
  }
  std::printf("\n");
}

void AblateChunkGranularity() {
  std::printf("--- C. element- vs chunk-granular debloating (§VI) ---\n");
  std::printf("%-7s %8s %14s %14s %14s\n", "prog", "chunk", "elem payload",
              "chunk payload", "chunk recall");
  for (const std::string& name : {std::string("LDC"), std::string("CS")}) {
    const std::unique_ptr<Program> program = CreateProgram(name);
    const IndexSet& truth = program->GroundTruth();
    KondoConfig config;
    const KondoResult result = KondoPipeline(config).Run(*program);
    for (int64_t chunk : {8, 16, 32}) {
      ChunkedLayout layout(program->data_shape(), DType::kFloat128,
                           {chunk, chunk});
      ChunkSubsetStats stats;
      const IndexSet aligned =
          ChunkAlignedSubset(result.approx, layout, &stats);
      const AccuracyMetrics metrics = ComputeAccuracy(truth, aligned);
      // Element-granular payload: bitmap + packed elements (DebloatedArray).
      const int64_t elem_payload =
          static_cast<int64_t>(result.approx.size()) * 16 +
          program->data_shape().NumElements() / 8;
      std::printf("%-7s %8lld %13lldB %13lldB %14.3f\n", name.c_str(),
                  static_cast<long long>(chunk),
                  static_cast<long long>(elem_payload),
                  static_cast<long long>(
                      ChunkSubsetPayloadBytes(stats.retained_chunks, layout)),
                  metrics.recall);
    }
  }
  std::printf("(chunk-granular subsets are supersets: recall can only "
              "rise; payload grows with chunk size)\n\n");
}

void AblateHybrid() {
  std::printf("--- D. Kondo+AFL hybrid top-up (§VI future work) ---\n");
  std::printf("%-7s %12s %12s %12s %12s\n", "prog", "Kondo rec",
              "hybrid rec", "AFL new", "repaired");
  for (const std::string& name : {std::string("CS3"), std::string("CS")}) {
    const std::unique_ptr<Program> program = CreateProgram(name);
    const IndexSet& truth = program->GroundTruth();
    KondoConfig kondo_config;
    kondo_config.fuzz.max_iter = 600;  // Under-converged on purpose.
    kondo_config.rng_seed = 1;
    AflConfig afl_config;
    afl_config.max_seconds = 1.0;
    afl_config.exec_overhead_micros = 100;
    const HybridOutcome outcome =
        RunHybridKondoAfl(*program, kondo_config, afl_config);
    std::printf("%-7s %12.3f %12.3f %12lld %12lld\n", name.c_str(),
                ComputeAccuracy(truth, outcome.kondo.approx).recall,
                ComputeAccuracy(truth, outcome.combined_approx).recall,
                static_cast<long long>(outcome.afl_new_offsets),
                static_cast<long long>(outcome.repaired_offsets));
  }
  std::printf("\n");
}

void AblateRemoteFetch() {
  std::printf("--- E. remote fetch-on-miss (§VI) ---\n");
  const std::unique_ptr<Program> program = CreateProgram("CS", 64);
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(9);
  const std::string registry = "/tmp/kondo_bench_registry.kdf";
  KONDO_CHECK(WriteKdfFile(registry, array).ok());

  KondoConfig config;
  config.fuzz.max_iter = 400;  // Leaves a recall gap for fetches to repair.
  config.rng_seed = 2;
  const KondoResult result = KondoPipeline(config).Run(*program);

  StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
      KdfRemoteSource::Open(registry);
  KONDO_CHECK(remote.ok());
  const std::string package = "/tmp/kondo_bench_debloated.kdp";
  KONDO_CHECK(
      WriteKdpFile(package, PackageDebloated(array, result.approx)).ok());
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(package);
  KONDO_CHECK(reader.ok());
  DebloatRuntime runtime(*std::move(reader), *std::move(remote));

  Rng rng(4);
  int64_t runs = 0;
  for (int i = 0; i < 200; ++i) {
    const ParamValue v = program->param_space().Sample(rng);
    KONDO_CHECK(runtime.ReplayRun(*program, v).ok());
    ++runs;
  }
  std::printf("replayed %lld sampled runs with 0 failures: %lld local hits, "
              "%lld remote fetches (%lld bytes pulled)\n\n",
              static_cast<long long>(runs),
              static_cast<long long>(runtime.stats().hits),
              static_cast<long long>(runtime.stats().remote_fetches),
              static_cast<long long>(runtime.stats().bytes_fetched));
  std::remove(registry.c_str());
  std::remove(package.c_str());
}

void AblateInvariantBaseline() {
  std::printf("--- F. conjunctive invariant inference (§VII) vs Kondo ---\n");
  std::printf("%-7s %22s %22s\n", "prog", "octagon prec/recall",
              "Kondo prec/recall");
  for (const std::string& name :
       {std::string("CS"), std::string("LDC"), std::string("PRL"),
        std::string("CS1")}) {
    const std::unique_ptr<Program> program = CreateProgram(name);
    const IndexSet& truth = program->GroundTruth();
    // Same fuzz campaign feeds both: isolate the region representation.
    KondoConfig config;
    config.rng_seed = 1;
    const KondoResult kondo = KondoPipeline(config).Run(*program);
    const OctagonInvariant invariant =
        OctagonInvariant::Infer(kondo.fuzz.discovered);
    const AccuracyMetrics oct =
        ComputeAccuracy(truth, invariant.Rasterize(program->data_shape()));
    const AccuracyMetrics hull = ComputeAccuracy(truth, kondo.approx);
    std::printf("%-7s %10.3f / %-9.3f %10.3f / %-9.3f\n", name.c_str(),
                oct.precision, oct.recall, hull.precision, hull.recall);
  }
  std::printf("(a single conjunctive octagon cannot express disjoint or "
              "holed subsets — the §VII limitation)\n\n");
}

void AblateEnsemble() {
  std::printf("--- G. ensemble of independent campaigns (variance -> "
              "recall) ---\n");
  std::printf("%8s %12s %12s %14s\n", "members", "recall", "precision",
              "evaluations");
  const std::unique_ptr<Program> program = CreateProgram("CS3");
  const IndexSet& truth = program->GroundTruth();
  KondoConfig config;
  config.fuzz.max_iter = 400;  // Weak members show the ensemble effect.
  config.rng_seed = 1;
  for (int members : {1, 2, 4, 8}) {
    const EnsembleResult ensemble =
        RunEnsembleKondo(*program, config, members);
    const AccuracyMetrics metrics =
        ComputeAccuracy(truth, ensemble.combined_approx);
    std::printf("%8d %12.3f %12.3f %14d\n", members, metrics.recall,
                metrics.precision, ensemble.total_evaluations);
  }
  std::printf("\n");
}

void PrintAblations() {
  std::printf("=== Ablations over Kondo design choices ===\n\n");
  AblateCloseMode();
  AblateCellSize();
  AblateChunkGranularity();
  AblateHybrid();
  AblateRemoteFetch();
  AblateInvariantBaseline();
  AblateEnsemble();
}

void BM_ChunkAlignSubset(benchmark::State& state) {
  const std::unique_ptr<Program> program = CreateProgram("CS");
  const KondoResult result = KondoPipeline(KondoConfig{}).Run(*program);
  ChunkedLayout layout(program->data_shape(), DType::kFloat128,
                       {state.range(0), state.range(0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ChunkAlignedSubset(result.approx, layout).size());
  }
}
BENCHMARK(BM_ChunkAlignSubset)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kondo

int main(int argc, char** argv) {
  kondo::PrintAblations();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
