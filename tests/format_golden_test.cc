// Identity gate for every binary format: the exact size and CRC32 of a
// fixed KDF, KDP, KEL2, KPC frame and fleet payload. Each case encodes
// fixed inputs and compares the bytes against pinned values, so any codec
// change that moves one byte of a file or of the wire fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "array/kdf_file.h"
#include "audit/event.h"
#include "fleet/fleet_protocol.h"
#include "pack/pack_writer.h"
#include "provenance/crc32.h"
#include "provenance/kel2_writer.h"
#include "serve/kpc.h"

namespace kondo {
namespace {

struct Digest {
  size_t bytes;
  uint32_t crc;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.bytes == b.bytes && a.crc == b.crc;
  }
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.bytes << ", 0x" << std::hex << d.crc << std::dec
            << "}";
}

Digest DigestOf(const std::string& bytes) {
  return {bytes.size(), Crc32(bytes.data(), bytes.size())};
}

Digest FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return DigestOf(std::string(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()));
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/format_golden_" + name;
}

/// A smooth field with a sign change: values repeat in the high bytes and
/// differ in the low ones, which exercises every codec path.
DataArray FixedArray(const Shape& shape, DType dtype) {
  DataArray array(shape, dtype);
  for (int64_t i = 0; i < shape.NumElements(); ++i) {
    array.SetLinear(i, static_cast<double>(i * 7 - 50) * 0.25);
  }
  return array;
}

/// Keeps the elements of the first two rows plus a diagonal, so the pack
/// grid has dense chunks, sparse chunks and hole chunks.
DebloatedArray FixedDebloated(const Shape& shape, DType dtype) {
  IndexSet retained(shape);
  for (int64_t i = 0; i < shape.NumElements(); ++i) {
    const Index index = shape.Delinearize(i);
    if (index[0] < 2 || index[0] == index[1]) {
      retained.InsertLinear(i);
    }
  }
  return DebloatedArray::FromDataArray(FixedArray(shape, dtype), retained);
}

TEST(FormatGoldenTest, KdfRowMajorFloat64) {
  const std::string path = TempPath("row_major.kdf");
  ASSERT_TRUE(
      WriteKdfFile(path, FixedArray(Shape({6, 9}), DType::kFloat64)).ok());
  EXPECT_EQ(FileDigest(path), (Digest{456, 0x0b770243}));
}

TEST(FormatGoldenTest, KdfChunkedInt32) {
  const std::string path = TempPath("chunked.kdf");
  ASSERT_TRUE(WriteKdfFile(path, FixedArray(Shape({5, 7, 3}), DType::kInt32),
                           LayoutKind::kChunked, {2, 3, 2})
                  .ok());
  EXPECT_EQ(FileDigest(path), (Digest{920, 0xd3335429}));
}

TEST(FormatGoldenTest, KdpDeltaVarintAndHoleChunks) {
  const std::string path = TempPath("int.kdp");
  PackOptions options;
  options.chunk_dims = {4, 4};
  const StatusOr<PackStats> stats = WriteKdpFile(
      path, FixedDebloated(Shape({16, 12}), DType::kInt64), options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->hole_chunks, 0);
  EXPECT_GT(stats->coded_chunks, 0);
  EXPECT_EQ(FileDigest(path), (Digest{458, 0x59406f36}));
}

TEST(FormatGoldenTest, KdpBytePlaneAndHoleChunks) {
  for (DType dtype : {DType::kFloat64, DType::kFloat128}) {
    SCOPED_TRACE(static_cast<int>(dtype));
    const std::string path = TempPath("float.kdp");
    PackOptions options;
    options.chunk_dims = {4, 4, 2};
    const StatusOr<PackStats> stats = WriteKdpFile(
        path, FixedDebloated(Shape({12, 8, 4}), dtype), options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_GT(stats->hole_chunks, 0);
    EXPECT_GT(stats->coded_chunks, 0);
    EXPECT_EQ(FileDigest(path), dtype == DType::kFloat64
                                    ? (Digest{658, 0xc50b46e5})
                                    : (Digest{676, 0x4be51486}));
  }
}

std::vector<Event> FixedEvents() {
  std::vector<Event> events;
  for (int64_t i = 0; i < 40; ++i) {
    Event event;
    event.id.pid = 100 + i / 16;
    event.id.file_id = i % 7 == 0 ? 2 : 1;
    event.type = i % 9 == 0 ? EventType::kOpen : EventType::kPread;
    event.offset = 4096 + i * 8 - (i % 5) * 24;
    event.size = i % 11 == 0 ? 16 : 8;
    events.push_back(event);
  }
  return events;
}

TEST(FormatGoldenTest, Kel2TwoBlockStore) {
  const std::string path = TempPath("store.kel2");
  Kel2WriterOptions options;
  options.events_per_block = 24;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const Event& event : FixedEvents()) {
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->blocks_written(), 2);
  EXPECT_EQ(FileDigest(path), (Digest{307, 0xf89a3772}));
}

Digest FrameDigest(KpcKind kind, const std::string& payload) {
  std::string frame;
  AppendKpcFrame(kind, payload, &frame);
  return DigestOf(frame);
}

TEST(FormatGoldenTest, KpcFramePerVerb) {
  FetchSubsetRequest fetch;
  fetch.artifact = "main.kdp";
  fetch.begin = 12;
  fetch.end = 40;
  FetchSubsetResponse subset;
  subset.fingerprint_bytes = 123456;
  subset.fingerprint_crc = 0xdeadbeef;
  subset.begin = 12;
  subset.end = 16;
  subset.present = {1, 0, 1, 1};
  subset.values = {1.5, -2.25, 1e300};
  QueryRequest query;
  query.store = "merged.kel2";
  query.file_id = 2;
  query.begin = -8;
  query.end = 1 << 20;
  query.runs_only = 1;
  EventBatch batch;
  batch.events = FixedEvents();
  batch.events.resize(3);
  QueryDone done;
  done.events_total = 40;
  done.runs = {100, 101, 102};
  done.blocks_considered = 2;
  done.blocks_skipped = 1;
  done.blocks_decoded = 1;
  SubmitRequest submit;
  submit.program = "LDC";
  submit.seed = 7;
  submit.max_evals = 300;
  submit.max_iter = -1;
  SubmitResponse admitted;
  admitted.accepted = 1;
  admitted.job_id = 9;
  admitted.queue_depth = 3;
  admitted.message = "queued";
  ServeStatsSnapshot stats;
  stats.cache_hits = 5;
  stats.stores_reopened = -3;
  stats.verbs[kVerbQuery].count = 2;
  stats.verbs[kVerbQuery].buckets[kKpcLatencyBuckets - 1] = 1;
  KpcError error = KpcError::FromStatus(DataLossError("bad frame"));

  const std::vector<std::pair<Digest, Digest>> cases = {
      {FrameDigest(KpcKind::kFetchSubsetRequest, fetch.Encode()),
       {44, 0x296d5827}},
      {FrameDigest(KpcKind::kFetchSubsetResponse, subset.Encode()),
       {80, 0x20d69c11}},
      {FrameDigest(KpcKind::kQueryRequest, query.Encode()), {56, 0x12b5e708}},
      {FrameDigest(KpcKind::kEventBatch, batch.Encode()), {119, 0xeb2e25f6}},
      {FrameDigest(KpcKind::kQueryDone, done.Encode()), {76, 0x5131fbd0}},
      {FrameDigest(KpcKind::kSubmitRequest, submit.Encode()), {47, 0x3f0a4385}},
      {FrameDigest(KpcKind::kSubmitResponse, admitted.Encode()),
       {43, 0x65fec951}},
      {FrameDigest(KpcKind::kStatsRequest, ""), {16, 0xab218dd3}},
      {FrameDigest(KpcKind::kStatsResponse, stats.Encode()), {976, 0x3ec7ce06}},
      {FrameDigest(KpcKind::kError, error.Encode()), {33, 0x6f0861c3}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].first, cases[i].second) << "verb case " << i;
  }
}

TEST(FormatGoldenTest, FleetPayloads) {
  WorkerHello hello;
  hello.program = "STORM";
  hello.extent = 32;
  hello.rng_seed = 0x8000000000000001ULL;
  hello.fuzz.max_seconds = 2.5;
  hello.fuzz.max_evals = 400;
  hello.fuzz.test_backoff_micros = 250;
  WorkerHelloAck ack;
  ack.program = "STORM";
  ack.file_shapes = {Shape({32, 32}), Shape({4, 8, 16})};
  RunShardRequest run;
  run.shard = 3;
  run.slices = {{0, 0, 512}, {1, 64, 128}};
  HeartbeatMsg heartbeat;
  heartbeat.shard = 3;
  heartbeat.sequence = 17;
  ShardResultMsg result;
  result.shard = 3;
  result.kss = "KSS1 fixed state\n";
  result.kel2 = std::string("KEL2\0\0\0\0", 8);

  const std::vector<std::pair<Digest, Digest>> cases = {
      {DigestOf(hello.Encode()), {169, 0x2216e1aa}},
      {DigestOf(ack.Encode()), {61, 0x4f24c558}},
      {DigestOf(run.Encode()), {60, 0xb2212367}},
      {DigestOf(heartbeat.Encode()), {16, 0x7562ce12}},
      {DigestOf(result.Encode()), {41, 0x8388697d}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].first, cases[i].second) << "payload case " << i;
  }
}

}  // namespace
}  // namespace kondo
