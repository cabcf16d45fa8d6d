// End-to-end integration tests: the full container debloating story of
// Fig. 2 / Fig. 3, from a container specification through audited fuzzing,
// carving, packaging, and user-end replay.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/kdf_file.h"
#include "core/container_spec.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "pack_fixture.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(IntegrationTest, FullContainerDebloatStory) {
  // 1. Alice's container spec advertises the program and Θ.
  constexpr char kSpec[] = R"(
FROM ubuntu:20.04
ADD ./grid.kdf /app/grid.kdf
PARAM [0-63, 0-63]
ENTRYPOINT ["/app/CS"]
CMD [1, 2, /app/grid.kdf]
)";
  StatusOr<ContainerSpec> spec = ParseContainerSpec(kSpec);
  ASSERT_TRUE(spec.ok());

  // 2. The data dependency is built as a real KDF file.
  std::unique_ptr<Program> program = CreateProgram("CS", 64);
  DataArray array(program->data_shape(), DType::kFloat128);
  array.FillPattern(123);
  const std::string data_path = TempPath("grid.kdf");
  ASSERT_TRUE(WriteKdfFile(data_path, array).ok());

  // 3. Kondo runs fully audited debloat tests over the spec's Θ.
  ASSERT_EQ(spec->params.num_params(), 2);
  KondoConfig config;
  config.fuzz.max_iter = 800;
  config.rng_seed = 3;
  KondoPipeline pipeline(config);
  const KondoResult result = pipeline.RunWithTest(
      MakeAuditedDebloatTest(*program, data_path), spec->params,
      program->data_shape());
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), result.approx);
  EXPECT_GT(metrics.recall, 0.9);

  // 4. The debloated payload replaces the original data file.
  DebloatedArray debloated = PackageDebloated(array, result.approx);
  EXPECT_GT(debloated.SizeReductionFraction(), 0.2);
  const std::string debloated_path = TempPath("grid.kdp");
  ASSERT_TRUE(WriteKdpFile(debloated_path, debloated).ok());

  // 5. Bob's runtime recreates D_Θ and replays the advertised CMD run.
  //    Recall may be fractionally below 1 (§V-D1 reports 0.0%-0.8% of
  //    valuations seeing a missed access); any miss must surface as the
  //    data-missing exception, never as silent wrong data.
  StatusOr<std::unique_ptr<PackReader>> reader =
      PackReader::Open(debloated_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  DebloatRuntime runtime(*std::move(reader));
  const Status replay = runtime.ReplayRun(*program, {1.0, 2.0});
  if (!replay.ok()) {
    EXPECT_EQ(replay.code(), StatusCode::kDataMissing);
  }
  EXPECT_LE(runtime.stats().misses, runtime.stats().reads / 20);

  // 6. Every retained read returns the original value (Definition 1:
  //    identical program states on D and D_Θ wherever data is present).
  bool values_match = true;
  program->Execute({1.0, 2.0}, [&](const Index& index) {
    StatusOr<double> value = runtime.Read(index);
    if (value.ok() && *value != array.At(index)) {
      values_match = false;
    }
  });
  EXPECT_TRUE(values_match);
}

TEST(IntegrationTest, MissedAccessRateIsLowAcrossTableTwo) {
  // Section V-D1: between 0.0% and 0.8% of valuations see a missed access.
  // We assert a slightly looser bound per program on default configs.
  for (const std::string& name :
       {std::string("CS"), std::string("LDC"), std::string("PRL")}) {
    std::unique_ptr<Program> program = CreateProgram(name);
    KondoConfig config;
    config.rng_seed = 5;
    const KondoResult result = KondoPipeline(config).Run(*program);
    const MissedAccessStats stats = ComputeMissedValuations(
        *program, result.approx, /*max_exhaustive=*/20000,
        /*sample_size=*/5000);
    EXPECT_LT(stats.missed_fraction, 0.05) << name;
  }
}

TEST(IntegrationTest, DebloatedReplayFailsLoudlyOutsideTheta) {
  // A user running a valuation outside the advertised Θ semantics (here: a
  // region Kondo never saw because the creator's Θ excluded it) gets the
  // data-missing exception rather than silent wrong data.
  std::unique_ptr<Program> full = CreateProgram("PRL", 64);
  // Creator advertises only ring extents up to 16 — a sub-space of the
  // program's full extent range [8, 31]. Rings beyond 16 are never fuzzed,
  // so their indices are absent from the carved subset.
  const ParamSpace narrow_theta{ParamRange{8, 16, true},
                                ParamRange{8, 16, true}};
  KondoConfig config;
  config.rng_seed = 7;
  const KondoResult result = KondoPipeline(config).RunWithTest(
      MakeDebloatTest(*full), narrow_theta, full->data_shape());

  DataArray array(full->data_shape(), DType::kFloat64);
  DebloatRuntime runtime(PackForTest(PackageDebloated(array, result.approx)));
  // In-Θ replay works.
  EXPECT_TRUE(runtime.ReplayRun(*full, {10.0, 12.0}).ok());
  // Out-of-Θ replay (ring extent 28 ⇒ reads far outside the carved frame)
  // must raise data-missing.
  const Status status = runtime.ReplayRun(*full, {28.0, 28.0});
  EXPECT_EQ(status.code(), StatusCode::kDataMissing);
}

TEST(IntegrationTest, ChunkedFileAuditedPipeline) {
  std::unique_ptr<Program> program = CreateProgram("LDC", 32);
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(5);
  const std::string path = TempPath("chunked_ldc.kdf");
  ASSERT_TRUE(WriteKdfFile(path, array, LayoutKind::kChunked, {8, 8}).ok());

  KondoConfig config;
  config.fuzz.max_iter = 600;
  config.rng_seed = 11;
  const KondoResult result = KondoPipeline(config).RunWithTest(
      MakeAuditedDebloatTest(*program, path), program->param_space(),
      program->data_shape());
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), result.approx);
  EXPECT_GT(metrics.recall, 0.9);
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
}

TEST(IntegrationTest, SimpleConvexBaselineHasWorsePrecisionOnLdc) {
  // Fig. 8's SC column: a single hull bridges LDC's two blocks.
  std::unique_ptr<Program> program = CreateProgram("LDC");
  KondoConfig config;
  config.rng_seed = 13;
  const KondoResult kondo = KondoPipeline(config).Run(*program);
  const IndexSet sc_approx =
      SimpleConvexCarve(kondo.fuzz.discovered).Rasterize();
  const double kondo_precision =
      ComputeAccuracy(program->GroundTruth(), kondo.approx).precision;
  const double sc_precision =
      ComputeAccuracy(program->GroundTruth(), sc_approx).precision;
  EXPECT_GT(kondo_precision, sc_precision + 0.2);
}

}  // namespace
}  // namespace kondo
