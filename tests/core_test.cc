#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "array/data_array.h"
#include "core/container_spec.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "pack_fixture.h"
#include "workloads/real_app_programs.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

// --------------------------------------------------------------- Metrics --

IndexSet SetOf(const Shape& shape, std::initializer_list<Index> indices) {
  IndexSet set(shape);
  for (const Index& index : indices) {
    set.Insert(index);
  }
  return set;
}

TEST(MetricsTest, ExactValues) {
  const Shape shape{8, 8};
  const IndexSet truth =
      SetOf(shape, {Index{0, 0}, Index{0, 1}, Index{0, 2}, Index{0, 3}});
  const IndexSet approx =
      SetOf(shape, {Index{0, 0}, Index{0, 1}, Index{7, 7}});
  const AccuracyMetrics metrics = ComputeAccuracy(truth, approx);
  EXPECT_DOUBLE_EQ(metrics.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(metrics.recall, 0.5);
  EXPECT_EQ(metrics.intersection, 2);
  EXPECT_NEAR(metrics.f1, 2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5), 1e-12);
}

TEST(MetricsTest, PerfectMatch) {
  const Shape shape{4, 4};
  const IndexSet set = SetOf(shape, {Index{1, 1}, Index{2, 2}});
  const AccuracyMetrics metrics = ComputeAccuracy(set, set);
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
  EXPECT_DOUBLE_EQ(metrics.recall, 1.0);
  EXPECT_DOUBLE_EQ(metrics.f1, 1.0);
}

TEST(MetricsTest, EmptyApproxConventions) {
  const Shape shape{4, 4};
  const IndexSet truth = SetOf(shape, {Index{0, 0}});
  const AccuracyMetrics metrics = ComputeAccuracy(truth, IndexSet(shape));
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);  // Nothing wasteful included.
  EXPECT_DOUBLE_EQ(metrics.recall, 0.0);
}

TEST(MetricsTest, BloatFraction) {
  const Shape shape{4, 4};
  EXPECT_DOUBLE_EQ(BloatFraction(shape, IndexSet(shape)), 1.0);
  const IndexSet half = SetOf(
      shape, {Index{0, 0}, Index{0, 1}, Index{0, 2}, Index{0, 3},
              Index{1, 0}, Index{1, 1}, Index{1, 2}, Index{1, 3}});
  EXPECT_DOUBLE_EQ(BloatFraction(shape, half), 0.5);
}

TEST(MetricsTest, MissedValuationsExhaustive) {
  std::unique_ptr<Program> program = CreateProgram("CS", 16);
  const MissedAccessStats none =
      ComputeMissedValuations(*program, program->GroundTruth());
  EXPECT_TRUE(none.exhaustive);
  EXPECT_EQ(none.valuations_checked, 256);
  EXPECT_EQ(none.valuations_missed, 0);

  // Remove one ground-truth index: every run touching it now misses.
  IndexSet truncated(program->data_shape());
  program->GroundTruth().ForEach([&truncated](const Index& index) {
    if (!(index == Index{0, 0})) {
      truncated.Insert(index);
    }
  });
  const MissedAccessStats some =
      ComputeMissedValuations(*program, truncated);
  // (0,0) is read by every useful run (the walk starts there).
  EXPECT_GT(some.valuations_missed, 100);
}

TEST(MetricsTest, MissedValuationsSampledForHugeTheta) {
  std::unique_ptr<Program> program = CreateProgram("CS", 128);
  const MissedAccessStats stats = ComputeMissedValuations(
      *program, program->GroundTruth(), /*max_exhaustive=*/100,
      /*sample_size=*/500);
  EXPECT_FALSE(stats.exhaustive);
  EXPECT_EQ(stats.valuations_checked, 500);
  EXPECT_EQ(stats.valuations_missed, 0);
}

// --------------------------------------------------------- ContainerSpec --

constexpr char kSpecText[] = R"(
# Kondo container specification (Fig. 2a)
FROM ubuntu:20.04
RUN apt-get install -y gcc
RUN mkdir /stencil
ADD ./mnist.kdf /stencil/mnist.kdf
ADD Stencil.c /stencil/crossStencil.c
PARAM [0-30, 300.00-1200.00, 0-50]
ENTRYPOINT ["/stencil/CS"]
CMD [30, 550.0, 10, /stencil/mnist.kdf]
)";

TEST(ContainerSpecTest, ParsesFigureTwoExample) {
  StatusOr<ContainerSpec> spec = ParseContainerSpec(kSpecText);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->base_image, "ubuntu:20.04");
  EXPECT_EQ(spec->run_steps.size(), 2u);
  EXPECT_EQ(spec->adds.size(), 2u);
  EXPECT_EQ(spec->entrypoint, "/stencil/CS");
  ASSERT_EQ(spec->cmd_args.size(), 4u);
  EXPECT_EQ(spec->cmd_args[0], "30");

  ASSERT_EQ(spec->params.num_params(), 3);
  EXPECT_TRUE(spec->params.range(0).integer);
  EXPECT_DOUBLE_EQ(spec->params.range(0).hi, 30.0);
  EXPECT_FALSE(spec->params.range(1).integer);  // Decimal points present.
  EXPECT_DOUBLE_EQ(spec->params.range(1).lo, 300.0);
  EXPECT_DOUBLE_EQ(spec->params.range(2).hi, 50.0);
}

TEST(ContainerSpecTest, DataDependenciesExcludeCode) {
  StatusOr<ContainerSpec> spec = ParseContainerSpec(kSpecText);
  ASSERT_TRUE(spec.ok());
  const std::vector<std::string> deps = spec->DataDependencies();
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0], "/stencil/mnist.kdf");
}

TEST(ContainerSpecTest, MissingFromFails) {
  EXPECT_FALSE(ParseContainerSpec("RUN echo hi\n").ok());
}

TEST(ContainerSpecTest, UnknownInstructionFails) {
  EXPECT_FALSE(ParseContainerSpec("FROM x\nVOLUME /data\n").ok());
}

TEST(ContainerSpecTest, MalformedParamFails) {
  EXPECT_FALSE(ParseContainerSpec("FROM x\nPARAM [abc]\n").ok());
  EXPECT_FALSE(ParseContainerSpec("FROM x\nPARAM 0-30\n").ok());
  EXPECT_FALSE(ParseContainerSpec("FROM x\nPARAM [30-0]\n").ok());
}

TEST(ContainerSpecTest, MalformedAddFails) {
  EXPECT_FALSE(ParseContainerSpec("FROM x\nADD onlyone\n").ok());
}

TEST(ContainerSpecTest, DefaultParamsFromCmdSkipPaths) {
  const ParamSpace space = DefaultParamSpaceFromCmd(
      {"30", "550.0", "10", "/stencil/mnist.kdf"});
  ASSERT_EQ(space.num_params(), 3);
  EXPECT_TRUE(space.range(0).integer);
  EXPECT_DOUBLE_EQ(space.range(0).lo, 0.0);
  EXPECT_DOUBLE_EQ(space.range(0).hi, 120.0);  // 4 * 30.
  EXPECT_FALSE(space.range(1).integer);        // "550.0" has a point.
  EXPECT_DOUBLE_EQ(space.range(1).hi, 2200.0);
  EXPECT_DOUBLE_EQ(space.range(2).hi, 40.0);
}

TEST(ContainerSpecTest, DefaultParamsHaveMinimumWidth) {
  const ParamSpace space = DefaultParamSpaceFromCmd({"1", "0"});
  ASSERT_EQ(space.num_params(), 2);
  EXPECT_DOUBLE_EQ(space.range(0).hi, 16.0);
  EXPECT_DOUBLE_EQ(space.range(1).hi, 16.0);
}

TEST(ContainerSpecTest, EffectiveParamsPrefersExplicitParam) {
  StatusOr<ContainerSpec> spec = ParseContainerSpec(kSpecText);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->HasExplicitParams());
  EXPECT_EQ(spec->EffectiveParams().num_params(), 3);
  EXPECT_DOUBLE_EQ(spec->EffectiveParams().range(0).hi, 30.0);
}

TEST(ContainerSpecTest, EffectiveParamsFallsBackToCmdDefaults) {
  StatusOr<ContainerSpec> spec = ParseContainerSpec(
      "FROM x\nENTRYPOINT [\"/a\"]\nCMD [5, 7, /data.kdf]\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->HasExplicitParams());
  const ParamSpace space = spec->EffectiveParams();
  ASSERT_EQ(space.num_params(), 2);
  EXPECT_DOUBLE_EQ(space.range(0).hi, 20.0);
  EXPECT_DOUBLE_EQ(space.range(1).hi, 28.0);
}

TEST(ContainerSpecTest, CommentsAndBlankLinesIgnored) {
  StatusOr<ContainerSpec> spec =
      ParseContainerSpec("FROM x\n\n# comment\n  \nRUN step\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->run_steps.size(), 1u);
}

// ----------------------------------------------------------- DebloatTest --

TEST(DebloatTestTest, FastTestMatchesAccessSet) {
  std::unique_ptr<Program> program = CreateProgram("CS", 32);
  const DebloatTestFn test = MakeDebloatTest(*program);
  const ParamValue v{2.0, 5.0};
  const IndexSet via_test = test(v);
  const IndexSet direct = program->AccessSet(v);
  EXPECT_EQ(via_test.size(), direct.size());
  EXPECT_TRUE(direct.IsSubsetOf(via_test));
}

// -------------------------------------------------------------- Pipeline --

TEST(KondoPipelineTest, HighAccuracyOnCs) {
  std::unique_ptr<Program> program = CreateProgram("CS");
  KondoPipeline pipeline{KondoConfig{}};
  const KondoResult result = pipeline.Run(*program);
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), result.approx);
  EXPECT_GT(metrics.recall, 0.95);
  EXPECT_GT(metrics.precision, 0.9);
  EXPECT_GT(result.fuzz.stats.evaluations, 100);
  EXPECT_GE(result.carve_stats.final_hulls, 1);
}

TEST(KondoPipelineTest, PerfectSeparationOnLdc) {
  std::unique_ptr<Program> program = CreateProgram("LDC");
  KondoPipeline pipeline{KondoConfig{}};
  const KondoResult result = pipeline.Run(*program);
  const AccuracyMetrics metrics =
      ComputeAccuracy(program->GroundTruth(), result.approx);
  // The paper reports precision 1 for LDC "across all runs" (§V-D2): the
  // two block regions are clearly separated, so no hull ever bridges the
  // gap between them (conjunctive CLOSE may keep several hulls per block,
  // which costs nothing).
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
  EXPECT_GE(result.carve_stats.final_hulls, 2);
}

TEST(KondoPipelineTest, DeterministicUnderSeed) {
  std::unique_ptr<Program> program = CreateProgram("CS", 64);
  KondoConfig config;
  config.rng_seed = 99;
  const KondoResult a = KondoPipeline(config).Run(*program);
  const KondoResult b = KondoPipeline(config).Run(*program);
  EXPECT_EQ(a.approx.size(), b.approx.size());
  EXPECT_EQ(a.carve_stats.final_hulls, b.carve_stats.final_hulls);
}

TEST(KondoPipelineTest, AuditedTestProducesSameSubset) {
  std::unique_ptr<Program> program = CreateProgram("CS", 32);
  DataArray array(program->data_shape(), DType::kFloat64);
  const std::string path = ::testing::TempDir() + "/pipe32.kdf";
  ASSERT_TRUE(WriteKdfFile(path, array).ok());

  KondoConfig config;
  config.fuzz.max_iter = 300;
  config.rng_seed = 4;
  KondoPipeline pipeline(config);
  const KondoResult fast = pipeline.Run(*program);
  const KondoResult audited = pipeline.RunWithTest(
      MakeAuditedDebloatTest(*program, path), program->param_space(),
      program->data_shape());
  // Identical RNG seed => identical campaign => identical subset.
  EXPECT_EQ(audited.approx.size(), fast.approx.size());
  EXPECT_EQ(audited.fuzz.discovered.size(), fast.fuzz.discovered.size());
}

// FNV-1a over the ascending linear ids of `set`.
uint64_t IdsDigest(const IndexSet& set) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int64_t id : set.ToSortedLinearIds()) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<uint64_t>(id) >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct PipelineDigests {
  size_t discovered_size;
  uint64_t discovered;
  size_t approx_size;
  uint64_t approx;
};

PipelineDigests RunForDigests(const Program& program, int jobs) {
  KondoConfig config = ScaledKondoConfig(program.data_shape());
  config.rng_seed = 20240501;
  config.jobs = jobs;
  const KondoResult result = KondoPipeline(config).Run(program);
  return {result.fuzz.discovered.size(), IdsDigest(result.fuzz.discovered),
          result.approx.size(), IdsDigest(result.approx)};
}

// Pins the exact I_Θ the fuzz campaign discovers and the exact I'_Θ the
// carver rasterises, at jobs 1 and jobs 4. Any change to IndexSet's
// representation, the schedule or rasterisation that moves one id fails.
TEST(KondoPipelineTest, DiscoveredAndApproxIdsMatchGoldenDigests) {
  struct Case {
    std::unique_ptr<Program> program;
    PipelineDigests golden;
  };
  Case cases[] = {
      {CreateProgram("PRL3D", 64),
       {220256, 0x9b1d11a7c6c83790ULL, 247431, 0x0fa9fa9a89aecb2eULL}},
      {std::make_unique<ArdProgram>(32),
       {33946, 0x9d0c80fd5dd1863dULL, 46045, 0x7dc5b4edde004a6aULL}},
  };
  for (const Case& c : cases) {
    for (int jobs : {1, 4}) {
      SCOPED_TRACE(std::string(c.program->name()) + " jobs " +
                   std::to_string(jobs));
      const PipelineDigests got = RunForDigests(*c.program, jobs);
      EXPECT_EQ(got.discovered_size, c.golden.discovered_size);
      EXPECT_EQ(got.discovered, c.golden.discovered);
      EXPECT_EQ(got.approx_size, c.golden.approx_size);
      EXPECT_EQ(got.approx, c.golden.approx);
    }
  }
}

// --------------------------------------------------------------- Runtime --

TEST(RuntimeTest, ServesRetainedReadsAndRaisesDataMissing) {
  const Shape shape{8, 8};
  DataArray array(shape, DType::kFloat64);
  array.FillWith([&shape](const Index& index) {
    return static_cast<double>(shape.Linearize(index));
  });
  IndexSet retained(shape);
  retained.Insert(Index{1, 1});
  DebloatRuntime runtime(PackForTest(PackageDebloated(array, retained)));

  StatusOr<double> hit = runtime.Read(Index{1, 1});
  ASSERT_TRUE(hit.ok());
  EXPECT_DOUBLE_EQ(*hit, 9.0);
  StatusOr<double> miss = runtime.Read(Index{2, 2});
  EXPECT_EQ(miss.status().code(), StatusCode::kDataMissing);
  EXPECT_EQ(runtime.stats().reads, 2);
  EXPECT_EQ(runtime.stats().hits, 1);
  EXPECT_EQ(runtime.stats().misses, 1);
  ASSERT_EQ(runtime.missing_log().size(), 1u);
  EXPECT_EQ(runtime.missing_log()[0], (Index{2, 2}));
}

TEST(RuntimeTest, ReplaySupportedRunSucceeds) {
  std::unique_ptr<Program> program = CreateProgram("CS", 32);
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(8);
  // Retain the full ground truth: every supported run must replay cleanly.
  DebloatRuntime runtime(
      PackForTest(PackageDebloated(array, program->GroundTruth())));
  EXPECT_TRUE(runtime.ReplayRun(*program, {1.0, 3.0}).ok());
  EXPECT_TRUE(runtime.ReplayRun(*program, {0.0, 1.0}).ok());
  EXPECT_EQ(runtime.stats().misses, 0);
}

TEST(RuntimeTest, ReplayOutsideSubsetRaisesAndLogs) {
  std::unique_ptr<Program> program = CreateProgram("CS", 32);
  DataArray array(program->data_shape(), DType::kFloat64);
  // Retain nothing: every access misses.
  DebloatRuntime runtime(
      PackForTest(PackageDebloated(array, IndexSet(program->data_shape()))));
  const Status status = runtime.ReplayRun(*program, {1.0, 1.0});
  EXPECT_EQ(status.code(), StatusCode::kDataMissing);
  EXPECT_GT(runtime.stats().misses, 0);
  EXPECT_EQ(runtime.missing_log().size(),
            static_cast<size_t>(runtime.stats().misses));
}

TEST(RuntimeTest, ResetStatsClears) {
  DataArray array(Shape{4, 4}, DType::kFloat64);
  DebloatRuntime runtime(
      PackForTest(PackageDebloated(array, IndexSet(array.shape()))));
  (void)runtime.Read(Index{0, 0});
  runtime.ResetStats();
  EXPECT_EQ(runtime.stats().reads, 0);
  EXPECT_TRUE(runtime.missing_log().empty());
}

TEST(RuntimeTest, ReplayDecodesOnlyTheChunksItTouches) {
  std::unique_ptr<Program> program = CreateProgram("LDC");
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(5);
  DebloatRuntime runtime(
      PackForTest(PackageDebloated(array, program->GroundTruth())));
  const ParamValue v = {3.0, 4.0};
  std::set<int64_t> touched;
  program->Execute(v, [&](const Index& index) {
    touched.insert(runtime.package().grid().ChunkOfIndex(index));
  });
  ASSERT_TRUE(runtime.ReplayRun(*program, v).ok());
  EXPECT_EQ(runtime.package().stats().chunks_decoded,
            static_cast<int64_t>(touched.size()));
  EXPECT_LT(static_cast<int64_t>(touched.size()),
            runtime.package().grid().num_chunks());
}

}  // namespace
}  // namespace kondo
