// Tests for the byte-level debloated replay file (Sciunit's re-execution
// mapping), the VPIC threshold-subsetting workload, and ensemble campaigns.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

#include "array/kdf_file.h"
#include "core/debloated_file.h"
#include "core/ensemble.h"
#include "core/metrics.h"
#include "pack_fixture.h"
#include "workloads/registry.h"
#include "workloads/vpic_program.h"

namespace kondo {
namespace {

// --------------------------------------------------- VirtualDebloatedFile --

/// A runtime over `array` packed as a KDP package.
DebloatRuntime PackedRuntime(const DebloatedArray& array) {
  return DebloatRuntime(PackForTest(array));
}

class VirtualDebloatedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DataArray>(Shape{8, 8}, DType::kFloat64);
    array_->FillWith([](const Index& index) {
      return static_cast<double>(index[0] * 8 + index[1]);
    });
    // Retain the top half (x < 4).
    IndexSet retained(array_->shape());
    array_->shape().ForEachIndex([&retained](const Index& index) {
      if (index[0] < 4) {
        retained.Insert(index);
      }
    });
    debloated_ = DebloatedArray::FromDataArray(*array_, retained);
  }

  std::unique_ptr<DataArray> array_;
  DebloatedArray debloated_{
      DebloatedArray::FromDataArray(DataArray(Shape{1}), IndexSet(Shape{1}))};
};

TEST_F(VirtualDebloatedFileTest, HeaderBytesMatchRealKdfFile) {
  StatusOr<VirtualDebloatedFile> vfile =
      VirtualDebloatedFile::Create(PackedRuntime(debloated_));
  ASSERT_TRUE(vfile.ok());
  // Write the original as a real KDF file and compare header bytes.
  const std::string path = ::testing::TempDir() + "/vfile_ref.kdf";
  ASSERT_TRUE(WriteKdfFile(path, *array_).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(vfile->payload_offset(), reader->payload_offset());
  ASSERT_EQ(vfile->FileBytes(), reader->FileBytes());

  std::vector<char> expected(static_cast<size_t>(reader->payload_offset()));
  std::vector<char> actual(expected.size());
  ASSERT_TRUE(reader->ReadRaw(0, reader->payload_offset(), expected.data())
                  .ok());
  ASSERT_TRUE(
      vfile->ReadRaw(0, vfile->payload_offset(), actual.data()).ok());
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(), expected.size()), 0);
}

TEST_F(VirtualDebloatedFileTest, RetainedRangeReplaysOriginalBytes) {
  StatusOr<VirtualDebloatedFile> vfile =
      VirtualDebloatedFile::Create(PackedRuntime(debloated_));
  ASSERT_TRUE(vfile.ok());
  // Row 2 (retained): elements (2,0)..(2,7), 64 bytes.
  const int64_t offset = vfile->payload_offset() + 2 * 8 * 8;
  char buf[64];
  StatusOr<int64_t> n = vfile->ReadRaw(offset, 64, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 64);
  for (int i = 0; i < 8; ++i) {
    double value;
    std::memcpy(&value, buf + i * 8, 8);
    EXPECT_DOUBLE_EQ(value, static_cast<double>(16 + i));
  }
}

TEST_F(VirtualDebloatedFileTest, NullRangeRaisesDataMissing) {
  StatusOr<VirtualDebloatedFile> vfile =
      VirtualDebloatedFile::Create(PackedRuntime(debloated_));
  ASSERT_TRUE(vfile.ok());
  // Row 6 is debloated.
  const int64_t offset = vfile->payload_offset() + 6 * 8 * 8;
  char buf[64];
  StatusOr<int64_t> n = vfile->ReadRaw(offset, 64, buf);
  EXPECT_EQ(n.status().code(), StatusCode::kDataMissing);
  EXPECT_EQ(vfile->stats().missing_range_hits, 1);
}

TEST_F(VirtualDebloatedFileTest, PartialElementReadWorks) {
  StatusOr<VirtualDebloatedFile> vfile =
      VirtualDebloatedFile::Create(PackedRuntime(debloated_));
  ASSERT_TRUE(vfile.ok());
  // 4 bytes straddling elements (0,0) and (0,1): offset mid-element.
  char buf[8];
  StatusOr<int64_t> n =
      vfile->ReadRaw(vfile->payload_offset() + 4, 8, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8);
  // Verify against a real file.
  const std::string path = ::testing::TempDir() + "/vfile_partial.kdf";
  ASSERT_TRUE(WriteKdfFile(path, *array_).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  char expected[8];
  ASSERT_TRUE(reader->ReadRaw(reader->payload_offset() + 4, 8, expected).ok());
  EXPECT_EQ(std::memcmp(buf, expected, 8), 0);
}

TEST_F(VirtualDebloatedFileTest, ShortReadAtEof) {
  StatusOr<VirtualDebloatedFile> vfile =
      VirtualDebloatedFile::Create(PackedRuntime(debloated_));
  ASSERT_TRUE(vfile.ok());
  char buf[64];
  // The last row is Null, so read the end of a *retained* region instead:
  // EOF behaviour with a valid range start beyond file end.
  StatusOr<int64_t> n = vfile->ReadRaw(vfile->FileBytes() + 10, 64, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST_F(VirtualDebloatedFileTest, HugeOffsetOrSizeClampsWithoutOverflow) {
  StatusOr<VirtualDebloatedFile> vfile =
      VirtualDebloatedFile::Create(PackedRuntime(debloated_));
  ASSERT_TRUE(vfile.ok());
  char buf[8];
  StatusOr<int64_t> n = vfile->ReadRaw(vfile->FileBytes(), INT64_MAX, buf);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0);
  n = vfile->ReadRaw(INT64_MAX, 1, buf);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0);
}

TEST_F(VirtualDebloatedFileTest, NonPositiveChunkDimsAreInvalid) {
  StatusOr<VirtualDebloatedFile> vfile = VirtualDebloatedFile::Create(
      PackedRuntime(debloated_), LayoutKind::kChunked, {0, 4});
  EXPECT_EQ(vfile.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VirtualDebloatedFileTest, ChunkedPaddingReadsAsZero) {
  DataArray array(Shape{3, 3}, DType::kFloat64);
  array.FillWith([](const Index&) { return 7.0; });
  IndexSet all(array.shape());
  array.shape().ForEachIndex([&all](const Index& i) { all.Insert(i); });
  StatusOr<VirtualDebloatedFile> vfile = VirtualDebloatedFile::Create(
      PackedRuntime(DebloatedArray::FromDataArray(array, all)),
      LayoutKind::kChunked, {2, 2});
  ASSERT_TRUE(vfile.ok());
  // Read the whole payload: padding slots must be zero, elements 7.0.
  const int64_t payload = vfile->FileBytes() - vfile->payload_offset();
  std::vector<char> buf(static_cast<size_t>(payload));
  StatusOr<int64_t> n =
      vfile->ReadRaw(vfile->payload_offset(), payload, buf.data());
  ASSERT_TRUE(n.ok());
  int sevens = 0;
  int zeros = 0;
  for (int64_t i = 0; i < payload; i += 8) {
    double value;
    std::memcpy(&value, buf.data() + i, 8);
    if (value == 7.0) ++sevens;
    if (value == 0.0) ++zeros;
  }
  EXPECT_EQ(sevens, 9);
  EXPECT_EQ(zeros, 7);  // 4 chunks x 4 slots - 9 elements.
}

TEST(VirtualDebloatedFileReplayTest, SupportedRunReplaysViaByteReads) {
  const std::unique_ptr<Program> program = CreateProgram("LDC", 64);
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(3);
  StatusOr<VirtualDebloatedFile> vfile = VirtualDebloatedFile::Create(
      PackedRuntime(DebloatedArray::FromDataArray(array,
                                                  program->GroundTruth())));
  ASSERT_TRUE(vfile.ok());
  EXPECT_TRUE(vfile->ReplayRun(*program, {2.0, 3.0}).ok());
  EXPECT_EQ(vfile->stats().missing_range_hits, 0);
  EXPECT_GT(vfile->stats().bytes_served, 0);
}

TEST(VirtualDebloatedFileReplayTest, UnsupportedRunRaisesDataMissing) {
  const std::unique_ptr<Program> program = CreateProgram("PRL", 64);
  DataArray array(program->data_shape(), DType::kFloat64);
  // Retain nothing: every byte range misses.
  StatusOr<VirtualDebloatedFile> vfile = VirtualDebloatedFile::Create(
      PackedRuntime(DebloatedArray::FromDataArray(array,
                                                  IndexSet(array.shape()))));
  ASSERT_TRUE(vfile.ok());
  const Status status = vfile->ReplayRun(*program, {10.0, 10.0});
  EXPECT_EQ(status.code(), StatusCode::kDataMissing);
  EXPECT_GT(vfile->stats().missing_range_hits, 0);
}

// ------------------------------------------------------------------ VPIC --

TEST(VpicProgramTest, EnergyFieldIsDeterministicAndBounded) {
  VpicProgram program(32);
  const double e1 = program.EnergyAt(Index{10, 10, 16});
  EXPECT_DOUBLE_EQ(e1, program.EnergyAt(Index{10, 10, 16}));
  EXPECT_GE(e1, 0.0);
  EXPECT_LE(e1, 100.0);
  // The hot spot core is hotter than the far corner.
  EXPECT_GT(program.EnergyAt(Index{10, 10, 16}),
            program.EnergyAt(Index{31, 31, 0}));
}

TEST(VpicProgramTest, RunsReadOnlyAboveThreshold) {
  VpicProgram program(32);
  const IndexSet accessed = program.AccessSet({80.0, 16.0});
  EXPECT_FALSE(accessed.empty());
  accessed.ForEach([&program](const Index& index) {
    EXPECT_GE(program.EnergyAt(index), 80.0);
    EXPECT_EQ(index[2], 16);  // Only the chosen slab.
  });
}

TEST(VpicProgramTest, LowerThresholdReadsSuperset) {
  VpicProgram program(32);
  const IndexSet tight = program.AccessSet({90.0, 16.0});
  const IndexSet loose = program.AccessSet({60.0, 16.0});
  EXPECT_TRUE(tight.IsSubsetOf(loose));
  EXPECT_GT(loose.size(), tight.size());
}

TEST(VpicProgramTest, AnalyticGroundTruthMatchesEnumeration) {
  VpicProgram program(16);
  const IndexSet enumerated = program.GroundTruthByEnumeration(1e5);
  EXPECT_EQ(program.GroundTruth().size(), enumerated.size());
  EXPECT_TRUE(program.GroundTruth().IsSubsetOf(enumerated));
}

TEST(VpicProgramTest, OutOfThetaRunsAreUseless) {
  VpicProgram program(32);
  EXPECT_TRUE(program.AccessSet({50.0, 16.0}).empty());   // Below t_min.
  EXPECT_TRUE(program.AccessSet({80.0, 99.0}).empty());   // Slab OOB.
}

// -------------------------------------------------------------- Ensemble --

TEST(EnsembleTest, CombinedRecallAtLeastBestMember) {
  const std::unique_ptr<Program> program = CreateProgram("CS3");
  const IndexSet& truth = program->GroundTruth();
  KondoConfig config;
  config.fuzz.max_iter = 300;  // Weak members.
  config.rng_seed = 10;

  double best_member_recall = 0.0;
  for (int member = 0; member < 3; ++member) {
    KondoConfig member_config = config;
    member_config.rng_seed = config.rng_seed + static_cast<uint64_t>(member);
    const KondoResult result = KondoPipeline(member_config).Run(*program);
    best_member_recall = std::max(
        best_member_recall, ComputeAccuracy(truth, result.approx).recall);
  }

  const EnsembleResult ensemble = RunEnsembleKondo(*program, config, 3);
  const double ensemble_recall =
      ComputeAccuracy(truth, ensemble.combined_approx).recall;
  // The union of discoveries carves at least as much as any member's
  // discoveries alone (typically more).
  EXPECT_GE(ensemble_recall, best_member_recall - 0.02);
  EXPECT_EQ(ensemble.member_approx_sizes.size(), 3u);
  EXPECT_GT(ensemble.total_evaluations, 0);
}

TEST(EnsembleTest, SingleMemberMatchesPlainPipeline) {
  const std::unique_ptr<Program> program = CreateProgram("LDC", 64);
  KondoConfig config;
  config.rng_seed = 21;
  const EnsembleResult ensemble = RunEnsembleKondo(*program, config, 1);
  const KondoResult plain = KondoPipeline(config).Run(*program);
  EXPECT_EQ(ensemble.combined_approx.size(), plain.approx.size());
}

}  // namespace
}  // namespace kondo
