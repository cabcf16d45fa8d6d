// Quickstart: debloat the Listing-1 cross-stencil program end to end.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Steps: instantiate the program, run the Kondo pipeline (fuzz -> carve),
// compare the approximated subset against the ground truth, package the
// debloated data file as a KDP package, and replay a run at the "user end".
//
// Usage: quickstart [workdir]

#include <cstdio>
#include <memory>
#include <string>

#include "array/data_array.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "workloads/registry.h"

int main(int argc, char** argv) {
  using namespace kondo;
  const std::string workdir = argc > 1 ? argv[1] : "/tmp";

  // The containerized application: Listing 1's cross-stencil walk over a
  // 128x128 array with Θ = (stepX, stepY) ∈ [0,127]^2.
  std::unique_ptr<Program> program = CreateProgram("CS");
  std::printf("program: %s — %s\n", std::string(program->name()).c_str(),
              std::string(program->description()).c_str());
  std::printf("theta:   %s  (%.0f valuations)\n",
              program->param_space().ToString().c_str(),
              program->param_space().NumValuations());

  // Run Kondo with the paper's default configuration (Section V-B).
  KondoPipeline pipeline{KondoConfig{}};
  KondoResult result = pipeline.Run(*program);
  std::printf("fuzz:    %d iterations, %d evaluations (%d useful), %.2fs\n",
              result.fuzz.stats.iterations, result.fuzz.stats.evaluations,
              result.fuzz.stats.useful_evaluations, result.fuzz_seconds);
  std::printf("carve:   %d cells -> %d hulls after %d merges\n",
              result.carve_stats.num_cells, result.carve_stats.final_hulls,
              result.carve_stats.merge_operations);

  // Accuracy against the ground truth I_Θ.
  const IndexSet& truth = program->GroundTruth();
  const AccuracyMetrics metrics = ComputeAccuracy(truth, result.approx);
  std::printf("approx:  |I'_Θ| = %lld of |I| = %lld (truth %lld)\n",
              static_cast<long long>(metrics.approx_size),
              static_cast<long long>(program->data_shape().NumElements()),
              static_cast<long long>(metrics.truth_size));
  std::printf("quality: precision %.3f  recall %.3f\n", metrics.precision,
              metrics.recall);

  // Package D_Θ and replay a supported run against it.
  DataArray data(program->data_shape());
  data.FillPattern(/*seed=*/42);
  DebloatedArray debloated = PackageDebloated(data, result.approx);
  std::printf("package: %.1f%% smaller payload (%lld -> %lld bytes)\n",
              100.0 * debloated.SizeReductionFraction(),
              static_cast<long long>(debloated.OriginalPayloadBytes()),
              static_cast<long long>(debloated.DebloatedPayloadBytes()));

  const std::string package_path = workdir + "/quickstart.kdp";
  StatusOr<PackStats> packed = WriteKdpFile(package_path, debloated);
  StatusOr<std::unique_ptr<PackReader>> package =
      packed.ok() ? PackReader::Open(package_path)
                  : StatusOr<std::unique_ptr<PackReader>>(packed.status());
  if (!package.ok()) {
    std::fprintf(stderr, "package error: %s\n",
                 package.status().ToString().c_str());
    return 1;
  }
  DebloatRuntime runtime(*std::move(package));
  const Status replay = runtime.ReplayRun(*program, ParamValue{1.0, 2.0});
  std::printf("replay:  stepX=1 stepY=2 -> %s (%lld reads, %lld misses)\n",
              replay.ToString().c_str(),
              static_cast<long long>(runtime.stats().reads),
              static_cast<long long>(runtime.stats().misses));
  return 0;
}
