// Tests for the Section VI extensions: remote fetch-on-miss, chunk-granular
// debloating, the Kondo+AFL hybrid schedule, and the persistent event store.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "carve/chunk_subset.h"
#include "core/hybrid.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "pack_fixture.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------- remote fetch --

class RemoteFetchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = CreateProgram("CS", 32);
    array_ = std::make_unique<DataArray>(program_->data_shape(),
                                         DType::kFloat64);
    array_->FillPattern(11);
    // Unique per test case: ctest -j runs the cases as concurrent processes.
    registry_path_ = TempPath(
        std::string("registry_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".kdf");
    ASSERT_TRUE(WriteKdfFile(registry_path_, *array_).ok());
  }

  /// A package retaining only indices with even x.
  std::unique_ptr<PackReader> HalfRetained() {
    IndexSet retained(program_->data_shape());
    program_->data_shape().ForEachIndex([&retained](const Index& index) {
      if (index[0] % 2 == 0) {
        retained.Insert(index);
      }
    });
    return PackForTest(DebloatedArray::FromDataArray(*array_, retained));
  }

  std::unique_ptr<Program> program_;
  std::unique_ptr<DataArray> array_;
  std::string registry_path_;
};

TEST_F(RemoteFetchTest, LocalHitsDoNotFetch) {
  StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
      KdfRemoteSource::Open(registry_path_);
  ASSERT_TRUE(remote.ok());
  DebloatRuntime runtime(HalfRetained(), *std::move(remote));
  StatusOr<double> value = runtime.Read(Index{2, 3});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, array_->At(Index{2, 3}));
  EXPECT_EQ(runtime.stats().hits, 1);
  EXPECT_EQ(runtime.stats().remote_fetches, 0);
}

TEST_F(RemoteFetchTest, MissFetchesFromRemote) {
  StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
      KdfRemoteSource::Open(registry_path_);
  ASSERT_TRUE(remote.ok());
  DebloatRuntime runtime(HalfRetained(), *std::move(remote));
  StatusOr<double> value = runtime.Read(Index{3, 5});  // Odd x: Null.
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, array_->At(Index{3, 5}));
  EXPECT_EQ(runtime.stats().remote_fetches, 1);
  EXPECT_EQ(runtime.stats().bytes_fetched, 8);  // One float64 element.
}

TEST_F(RemoteFetchTest, FetchedElementsAreCached) {
  StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
      KdfRemoteSource::Open(registry_path_);
  ASSERT_TRUE(remote.ok());
  DebloatRuntime runtime(HalfRetained(), *std::move(remote));
  ASSERT_TRUE(runtime.Read(Index{3, 5}).ok());
  ASSERT_TRUE(runtime.Read(Index{3, 5}).ok());
  ASSERT_TRUE(runtime.Read(Index{3, 5}).ok());
  EXPECT_EQ(runtime.stats().remote_fetches, 1);
}

TEST_F(RemoteFetchTest, NullRemoteDegradesToDataMissing) {
  DebloatRuntime runtime(HalfRetained(), nullptr);
  StatusOr<double> value = runtime.Read(Index{3, 5});
  EXPECT_EQ(value.status().code(), StatusCode::kDataMissing);
  EXPECT_EQ(runtime.stats().misses, 1);
}

TEST_F(RemoteFetchTest, OutOfBoundsIsNotFetched) {
  StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
      KdfRemoteSource::Open(registry_path_);
  ASSERT_TRUE(remote.ok());
  DebloatRuntime runtime(HalfRetained(), *std::move(remote));
  StatusOr<double> value = runtime.Read(Index{99, 99});
  EXPECT_EQ(value.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(runtime.stats().remote_fetches, 0);
}

TEST_F(RemoteFetchTest, ReplayReachesEffectiveRecallOne) {
  // Even a poorly debloated payload replays every supported run cleanly
  // when backed by a remote source — the paper's path to 100% recall.
  StatusOr<std::unique_ptr<KdfRemoteSource>> remote =
      KdfRemoteSource::Open(registry_path_);
  ASSERT_TRUE(remote.ok());
  DebloatRuntime runtime(HalfRetained(), *std::move(remote));
  EXPECT_TRUE(runtime.ReplayRun(*program_, {1.0, 1.0}).ok());
  EXPECT_TRUE(runtime.ReplayRun(*program_, {3.0, 7.0}).ok());
  EXPECT_EQ(runtime.stats().misses, 0);
  EXPECT_GT(runtime.stats().remote_fetches, 0);
}

TEST_F(RemoteFetchTest, MissingRegistryFileFailsToOpen) {
  EXPECT_FALSE(KdfRemoteSource::Open(TempPath("nope.kdf")).ok());
}

// ---------------------------------------------------------- chunk subset --

TEST(ChunkSubsetTest, TouchedChunksAreSortedAndUnique) {
  ChunkedLayout layout(Shape{8, 8}, DType::kFloat64, {4, 4});
  IndexSet subset(layout.shape());
  subset.Insert(Index{0, 0});
  subset.Insert(Index{1, 1});  // Same chunk (0,0).
  subset.Insert(Index{7, 7});  // Chunk (1,1) = linear 3.
  const std::vector<int64_t> touched = TouchedChunks(subset, layout);
  ASSERT_EQ(touched.size(), 2u);
  EXPECT_EQ(touched[0], 0);
  EXPECT_EQ(touched[1], 3);
}

TEST(ChunkSubsetTest, AlignedSubsetExpandsToWholeChunks) {
  ChunkedLayout layout(Shape{8, 8}, DType::kFloat64, {4, 4});
  IndexSet subset(layout.shape());
  subset.Insert(Index{1, 1});
  ChunkSubsetStats stats;
  const IndexSet aligned = ChunkAlignedSubset(subset, layout, &stats);
  EXPECT_EQ(aligned.size(), 16u);  // Whole 4x4 chunk.
  EXPECT_TRUE(aligned.Contains(Index{0, 0}));
  EXPECT_TRUE(aligned.Contains(Index{3, 3}));
  EXPECT_FALSE(aligned.Contains(Index{4, 0}));
  EXPECT_EQ(stats.total_chunks, 4);
  EXPECT_EQ(stats.retained_chunks, 1);
  EXPECT_EQ(stats.subset_elements, 1);
  EXPECT_EQ(stats.chunk_aligned_elements, 16);
  EXPECT_DOUBLE_EQ(stats.ChunkBloatFraction(), 0.75);
}

TEST(ChunkSubsetTest, EdgeChunksClipToShape) {
  // 6x6 with 4x4 chunks: edge chunks are partial.
  ChunkedLayout layout(Shape{6, 6}, DType::kFloat64, {4, 4});
  IndexSet subset(layout.shape());
  subset.Insert(Index{5, 5});  // Corner chunk (1,1): only 2x2 in-bounds.
  const IndexSet aligned = ChunkAlignedSubset(subset, layout);
  EXPECT_EQ(aligned.size(), 4u);
  EXPECT_TRUE(aligned.Contains(Index{4, 4}));
  EXPECT_FALSE(aligned.Contains(Index{3, 4}));
}

TEST(ChunkSubsetTest, AlignedSubsetIsSuperset) {
  ChunkedLayout layout(Shape{32, 32}, DType::kFloat64, {5, 7});
  IndexSet subset(layout.shape());
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    subset.Insert(Index{rng.UniformInt(0, 31), rng.UniformInt(0, 31)});
  }
  const IndexSet aligned = ChunkAlignedSubset(subset, layout);
  EXPECT_TRUE(subset.IsSubsetOf(aligned));
}

TEST(ChunkSubsetTest, ThreeDimensionalChunks) {
  ChunkedLayout layout(Shape{8, 8, 8}, DType::kFloat64, {4, 4, 4});
  IndexSet subset(layout.shape());
  subset.Insert(Index{0, 0, 0});
  subset.Insert(Index{7, 7, 7});
  ChunkSubsetStats stats;
  const IndexSet aligned = ChunkAlignedSubset(subset, layout, &stats);
  EXPECT_EQ(stats.total_chunks, 8);
  EXPECT_EQ(stats.retained_chunks, 2);
  EXPECT_EQ(aligned.size(), 128u);
}

TEST(ChunkSubsetTest, PayloadBytesAccounting) {
  ChunkedLayout layout(Shape{8, 8}, DType::kFloat128, {4, 4});
  // 2 chunks * (16 elements * 16 bytes + 8-byte id).
  EXPECT_EQ(ChunkSubsetPayloadBytes(2, layout), 2 * (256 + 8));
}

TEST(ChunkSubsetTest, EmptySubsetKeepsNoChunks) {
  ChunkedLayout layout(Shape{8, 8}, DType::kFloat64, {4, 4});
  ChunkSubsetStats stats;
  const IndexSet aligned =
      ChunkAlignedSubset(IndexSet(layout.shape()), layout, &stats);
  EXPECT_TRUE(aligned.empty());
  EXPECT_EQ(stats.retained_chunks, 0);
  EXPECT_DOUBLE_EQ(stats.ChunkBloatFraction(), 1.0);
}

// ----------------------------------------------------------------- hybrid --

TEST(HybridTest, CombinedSubsetIsAtLeastKondo) {
  const std::unique_ptr<Program> program = CreateProgram("CS", 64);
  KondoConfig kondo_config;
  kondo_config.fuzz.max_iter = 400;
  kondo_config.rng_seed = 5;
  AflConfig afl_config;
  afl_config.max_execs = 1500;
  afl_config.max_seconds = 0.0;
  afl_config.exec_overhead_micros = 0;
  const HybridOutcome outcome =
      RunHybridKondoAfl(*program, kondo_config, afl_config);
  EXPECT_GE(outcome.combined_approx.size(), outcome.kondo.approx.size() / 2);
  const double kondo_recall =
      ComputeAccuracy(program->GroundTruth(), outcome.kondo.approx).recall;
  const double hybrid_recall =
      ComputeAccuracy(program->GroundTruth(), outcome.combined_approx).recall;
  EXPECT_GE(hybrid_recall, kondo_recall - 1e-9);
}

TEST(HybridTest, CountsNewAndRepairedOffsets) {
  const std::unique_ptr<Program> program = CreateProgram("CS", 64);
  KondoConfig kondo_config;
  kondo_config.fuzz.max_iter = 50;  // Deliberately weak Kondo campaign.
  kondo_config.rng_seed = 5;
  AflConfig afl_config;
  afl_config.max_execs = 2000;
  afl_config.max_seconds = 0.0;
  afl_config.exec_overhead_micros = 0;
  const HybridOutcome outcome =
      RunHybridKondoAfl(*program, kondo_config, afl_config);
  EXPECT_GT(outcome.afl_new_offsets, 0);
  EXPECT_GE(outcome.afl_new_offsets, outcome.repaired_offsets);
}

// ------------------------------------------------------------ event store --

Event MakeEvent(int64_t pid, EventType type, int64_t offset, int64_t size) {
  Event event;
  event.id = EventId{pid, 1};
  event.type = type;
  event.offset = offset;
  event.size = size;
  return event;
}

TEST(EventStoreTest, RoundTrip) {
  // Every event type survives the KEL2 type column, with pids and sizes
  // that are not monotone across the stream.
  const std::string path = TempPath("events.kel2");
  const std::vector<Event> written = {
      MakeEvent(1, EventType::kOpen, 0, 0),
      MakeEvent(1, EventType::kPread, 24, 16),
      MakeEvent(2, EventType::kMmap, 100, 64),
      MakeEvent(1, EventType::kRead, 8, 4),
      MakeEvent(3, EventType::kWrite, 0, 1),
      MakeEvent(2, EventType::kClose, 0, 0)};
  {
    StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
    ASSERT_TRUE(writer.ok());
    for (const Event& event : written) {
      ASSERT_TRUE(writer->Append(event).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
    EXPECT_EQ(writer->events_written(), 6);
  }
  StatusOr<std::vector<Event>> events = ReadLineageStore(path);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ((*events)[i].type, written[i].type) << i;
    EXPECT_EQ((*events)[i].id.pid, written[i].id.pid) << i;
    EXPECT_EQ((*events)[i].offset, written[i].offset) << i;
    EXPECT_EQ((*events)[i].size, written[i].size) << i;
  }
}

TEST(EventStoreTest, AppendAllFromLog) {
  EventLog log;
  log.Record(MakeEvent(1, EventType::kRead, 0, 110));
  log.Record(MakeEvent(2, EventType::kRead, 70, 30));
  const std::string path = TempPath("log.kel2");
  {
    StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendAll(log).ok());
  }
  // Replay into a fresh log: derived state matches.
  StatusOr<std::vector<Event>> events = ReadLineageStore(path);
  ASSERT_TRUE(events.ok()) << events.status();
  EventLog replayed;
  for (const Event& event : *events) {
    replayed.Record(event);
  }
  EXPECT_EQ(replayed.NumEvents(), 2);
  EXPECT_EQ(replayed.AccessedRanges(1).ToString(),
            log.AccessedRanges(1).ToString());
}

TEST(EventStoreTest, AppendAfterCloseFails) {
  const std::string path = TempPath("closed.kel2");
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_TRUE(writer->Close().ok());  // Idempotent.
  EXPECT_EQ(writer->Append(MakeEvent(1, EventType::kRead, 0, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Flush().code(), StatusCode::kFailedPrecondition);
}

TEST(EventStoreTest, RejectsWrongMagic) {
  // A store of the retired fixed-width generation (its magic header plus one
  // 40-byte record) is rejected, not decoded.
  const std::string path = TempPath("retired.kel");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char record[48] = {'K', 'E', 'L', '1'};
  std::fwrite(record, 1, sizeof(record), f);
  std::fclose(f);
  const StatusOr<std::vector<Event>> events = ReadLineageStore(path);
  EXPECT_EQ(events.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(events.status().message().find("not a KEL2"), std::string::npos)
      << events.status();
}

TEST(EventStoreTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadLineageStore(TempPath("absent.kel2")).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace kondo
