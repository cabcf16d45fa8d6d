// The full Fig. 2 / Fig. 3 container story, end to end:
//
//   1. parse Alice's Kondofile (environment, data deps, PARAM space),
//   2. build the data dependency as a real KDF file,
//   3. run audited debloat tests (ptrace-style interposition) under the
//      fuzz schedule, carve the observed offsets into hulls,
//   4. package the debloated payload that replaces the original file,
//   5. replay runs at Bob's end, including a deliberate out-of-Θ run that
//      triggers the data-missing exception.
//
// Usage: container_pipeline [workdir]

#include <cstdio>
#include <memory>
#include <string>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "core/container_spec.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "workloads/registry.h"

namespace {

constexpr char kKondofile[] = R"(
# Alice's container specification (cf. Fig. 2a)
FROM ubuntu:20.04
RUN apt-get install -y gcc
RUN mkdir /stencil
ADD ./fuji.kdf /stencil/fuji.kdf
ADD Stencil.c /stencil/crossStencil.c
PARAM [16-40, 16-40]
ENTRYPOINT ["/stencil/PRL"]
CMD [24, 30, /stencil/fuji.kdf]
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace kondo;
  const std::string workdir = argc > 1 ? argv[1] : "/tmp";

  // --- Alice's side -------------------------------------------------------
  std::printf("--- parsing Kondofile ---\n");
  StatusOr<ContainerSpec> spec = ParseContainerSpec(kKondofile);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  std::printf("base image:   %s\n", spec->base_image.c_str());
  std::printf("entrypoint:   %s\n", spec->entrypoint.c_str());
  std::printf("data deps:    %s\n", spec->DataDependencies()[0].c_str());
  std::printf("theta:        %s\n\n", spec->params.ToString().c_str());

  // The program advertised by the entrypoint (PRL's ring reader).
  std::unique_ptr<Program> program = CreateProgram("PRL");

  // Build the data dependency as a real file.
  const std::string data_path = workdir + "/fuji.kdf";
  DataArray array(program->data_shape(), DType::kFloat128);
  array.FillPattern(2024);
  if (Status status = WriteKdfFile(data_path, array); !status.ok()) {
    std::fprintf(stderr, "write error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("--- wrote %s (%lld bytes) ---\n\n", data_path.c_str(),
              static_cast<long long>(program->data_shape().NumElements() * 16 +
                                     24));

  // --- Kondo: audited fuzz + carve ----------------------------------------
  std::printf("--- running Kondo (audited debloat tests) ---\n");
  KondoConfig config;
  config.rng_seed = 7;
  KondoPipeline pipeline(config);
  const KondoResult result = pipeline.RunWithTest(
      MakeAuditedDebloatTest(*program, data_path), spec->params,
      program->data_shape());

  // Ground truth w.r.t. the *advertised* Θ: enumerate the spec's ranges.
  IndexSet advertised_truth(program->data_shape());
  for (int64_t w = 16; w <= 40; ++w) {
    for (int64_t h = 16; h <= 40; ++h) {
      advertised_truth.Union(program->AccessSet(
          {static_cast<double>(w), static_cast<double>(h)}));
    }
  }
  const AccuracyMetrics metrics =
      ComputeAccuracy(advertised_truth, result.approx);
  std::printf("evaluated %d seeds (%d useful), carved %d hulls\n",
              result.fuzz.stats.evaluations,
              result.fuzz.stats.useful_evaluations,
              result.carve_stats.final_hulls);
  std::printf("precision %.3f, recall %.3f\n\n", metrics.precision,
              metrics.recall);

  // --- packaging ----------------------------------------------------------
  DebloatedArray debloated = PackageDebloated(array, result.approx);
  const std::string debloated_path = workdir + "/fuji.kdp";
  StatusOr<PackStats> packed = WriteKdpFile(debloated_path, debloated);
  if (!packed.ok()) {
    std::fprintf(stderr, "package error: %s\n",
                 packed.status().ToString().c_str());
    return 1;
  }
  std::printf("--- packaged %s: %lld -> %lld bytes on disk ---\n\n",
              debloated_path.c_str(),
              static_cast<long long>(debloated.OriginalPayloadBytes()),
              static_cast<long long>(packed->file_bytes));

  // --- Bob's side ---------------------------------------------------------
  std::printf("--- user-end replay ---\n");
  StatusOr<std::unique_ptr<PackReader>> reader =
      PackReader::Open(debloated_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "read error: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  DebloatRuntime runtime(*std::move(reader));

  // The CMD run advertised in the spec (inside Θ).
  const Status in_theta = runtime.ReplayRun(*program, {24.0, 30.0});
  std::printf("CMD [24, 30]:     %s (%lld reads, %lld misses)\n",
              in_theta.ToString().c_str(),
              static_cast<long long>(runtime.stats().reads),
              static_cast<long long>(runtime.stats().misses));

  // A run outside the advertised Θ: ring extent 56 is valid program input
  // but the creator only advertised extents up to 40, so its offsets were
  // never containerized — Kondo's run-time raises the data-missing
  // exception and logs the offsets a remote fetcher would pull (§VI).
  runtime.ResetStats();
  const Status out_of_theta = runtime.ReplayRun(*program, {56.0, 56.0});
  std::printf("run [56, 56]:     %s (%lld misses logged for remote fetch)\n",
              out_of_theta.ToString().c_str(),
              static_cast<long long>(runtime.stats().misses));
  return 0;
}
