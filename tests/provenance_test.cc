#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "audit/auditor.h"
#include "audit/event.h"
#include "audit/event_log.h"
#include "audit/offset_mapper.h"
#include "audit/traced_file.h"
#include "common/byte_codec.h"
#include "common/rng.h"
#include "provenance/crc32.h"
#include "provenance/kel2_format.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/persist.h"
#include "provenance/provenance_query.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Event MakeEvent(int64_t pid, int64_t file_id, EventType type, int64_t offset,
                int64_t size) {
  Event event;
  event.id = EventId{pid, file_id};
  event.type = type;
  event.offset = offset;
  event.size = size;
  return event;
}

bool SameEvent(const Event& a, const Event& b) {
  return a.id == b.id && a.type == b.type && a.offset == b.offset &&
         a.size == b.size;
}

void ExpectSameEvents(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameEvent(got[i], want[i]))
        << "event " << i << ": got " << got[i] << " want " << want[i];
  }
}

// Event stream generators for the round-trip property tests: the three
// access patterns named in the acceptance criteria.

/// Near-sequential stencil sweeps: several runs, each scanning a window
/// with a fixed element width — the pattern KEL2's delta coding targets.
std::vector<Event> StencilStream(int64_t num_events, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events));
  int64_t pid = 1;
  int64_t offset = 64;
  const int64_t width = 16;
  for (int64_t i = 0; i < num_events; ++i) {
    if (i % 4096 == 0) {
      ++pid;
      offset = rng.UniformInt(0, 1024);
      events.push_back(MakeEvent(pid, 1, EventType::kOpen, 0, 0));
      continue;
    }
    events.push_back(MakeEvent(pid, 1, EventType::kPread, offset, width));
    offset += width;
  }
  return events;
}

/// Uniformly random positioned reads over a large file.
std::vector<Event> UniformStream(int64_t num_events, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events));
  for (int64_t i = 0; i < num_events; ++i) {
    events.push_back(MakeEvent(rng.UniformInt(1, 8), rng.UniformInt(1, 3),
                               EventType::kPread,
                               rng.UniformInt(0, 1 << 24),
                               rng.UniformInt(1, 4096)));
  }
  return events;
}

/// Random cluster centers with short sequential bursts inside each.
std::vector<Event> ClusteredStream(int64_t num_events, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events));
  while (static_cast<int64_t>(events.size()) < num_events) {
    const int64_t center = rng.UniformInt(0, 1 << 22);
    const int64_t pid = rng.UniformInt(1, 4);
    const int64_t burst = rng.UniformInt(1, 64);
    int64_t offset = center;
    for (int64_t i = 0;
         i < burst && static_cast<int64_t>(events.size()) < num_events;
         ++i) {
      const int64_t size = rng.UniformInt(8, 128);
      events.push_back(MakeEvent(pid, 1, EventType::kRead, offset, size));
      offset += size;
    }
  }
  return events;
}

std::string WriteKel2(const std::string& name,
                      const std::vector<Event>& events,
                      int64_t events_per_block = 512) {
  const std::string path = TempPath(name);
  Kel2WriterOptions options;
  options.events_per_block = events_per_block;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const Event& event : events) {
    EXPECT_TRUE(writer->Append(event).ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  return path;
}

// ----------------------------------------------------------------- crc32 --

TEST(Crc32Test, KnownVector) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "kondo provenance block payload";
  uint32_t crc = 0;
  crc = Crc32Update(crc, data.data(), 10);
  crc = Crc32Update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, Crc32(data.data(), data.size()));
}

// ------------------------------------------------------------ round trip --

TEST(Kel2RoundTripTest, EmptyStore) {
  const std::string path = WriteKel2("empty.kel2", {});
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 0);
  EXPECT_EQ(reader->NumEvents(), 0);
  StatusOr<std::vector<Event>> events = reader->ReadAll();
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(Kel2RoundTripTest, StencilStream) {
  const std::vector<Event> events = StencilStream(10000, 11);
  const std::string path = WriteKel2("stencil.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumEvents(), 10000);
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, UniformStream) {
  const std::vector<Event> events = UniformStream(10000, 12);
  const std::string path = WriteKel2("uniform.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, ClusteredStream) {
  const std::vector<Event> events = ClusteredStream(10000, 13);
  const std::string path = WriteKel2("clustered.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, ManySeedsAndBlockSizes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (int64_t block : {1, 3, 64, 1000}) {
      const std::vector<Event> events = UniformStream(257, seed);
      const std::string path = WriteKel2("many.kel2", events, block);
      StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
      ASSERT_TRUE(reader.ok()) << reader.status();
      StatusOr<std::vector<Event>> got = reader->ReadAll();
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameEvents(*got, events);
    }
  }
}

TEST(Kel2RoundTripTest, PartialBlockSealedOnClose) {
  const std::vector<Event> events = StencilStream(700, 3);
  const std::string path = WriteKel2("partial.kel2", events, 512);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 2);  // 512 + 188.
  EXPECT_EQ(reader->NumEvents(), 700);
}

TEST(Kel2RoundTripTest, NegativeOffsetsSurvive) {
  // Hostile but encodable: zigzag must carry negative fields unchanged.
  std::vector<Event> events;
  events.push_back(MakeEvent(-5, -9, EventType::kPread, -1000, 10));
  events.push_back(MakeEvent(5, 9, EventType::kRead, 1000, 10));
  // Extremes next to positive values: most deltas below overflow int64,
  // so the columns must difference and sum in wrapping uint64.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  events.push_back(MakeEvent(kMin, kMax, EventType::kRead, 0, 10));
  events.push_back(MakeEvent(7, kMin, EventType::kRead, 8, 10));
  events.push_back(MakeEvent(kMax, 3, EventType::kRead, 16, 10));
  events.push_back(MakeEvent(kMin, kMax, EventType::kRead, 24, 10));
  const std::string path = WriteKel2("negative.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, StencilCompressesAtLeastThreeFold) {
  const std::vector<Event> events = StencilStream(20000, 4);
  const std::string kel2_path = WriteKel2("ratio.kel2", events);
  StatusOr<int64_t> kel2_bytes = FileSizeBytes(kel2_path);
  ASSERT_TRUE(kel2_bytes.ok());
  // Against a fixed-width store of 40 bytes per event plus an 8-byte header.
  const int64_t fixed_width_bytes =
      8 + 40 * static_cast<int64_t>(events.size());
  EXPECT_GE(static_cast<double>(fixed_width_bytes) /
                static_cast<double>(*kel2_bytes),
            3.0);
}

// --------------------------------------------------------- crash + decay --

TEST(Kel2CrashTest, TornTrailingPayloadDropped) {
  const std::vector<Event> events = StencilStream(1024, 9);
  const std::string path = WriteKel2("torn.kel2", events, 256);
  StatusOr<int64_t> full = FileSizeBytes(path);
  ASSERT_TRUE(full.ok());
  // Chop into the last block's payload: the reader must drop exactly that
  // block and keep the first three.
  ASSERT_EQ(::truncate(path.c_str(), *full - 10), 0);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 3);
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got,
                   std::vector<Event>(events.begin(), events.begin() + 768));
}

TEST(Kel2CrashTest, TornTrailingDescriptorDropped) {
  const std::vector<Event> events = StencilStream(512, 10);
  const std::string path = WriteKel2("torn_desc.kel2", events, 256);
  // Append half a descriptor of garbage, as a crash between the descriptor
  // write and the payload write would leave.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[30] = {};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 2);
  EXPECT_EQ(reader->NumEvents(), 512);
}

TEST(Kel2CrashTest, CorruptedBlockDetectedByChecksum) {
  const std::vector<Event> events = UniformStream(1024, 21);
  const std::string path = WriteKel2("corrupt.kel2", events, 256);
  StatusOr<Kel2Reader> pristine = Kel2Reader::Open(path);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine->NumBlocks(), 4);
  // Flip one payload byte in the middle of block 1.
  const Kel2BlockInfo& block = pristine->blocks()[1];
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, block.payload_pos + block.payload_bytes / 2,
                       SEEK_SET),
            0);
  const int original = std::fgetc(f);
  ASSERT_NE(original, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(original ^ 0x40, f);
  std::fclose(f);

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  // Block 1 is poisoned; the others still decode.
  EXPECT_TRUE(reader->DecodeBlock(0).ok());
  StatusOr<std::vector<Event>> bad = reader->DecodeBlock(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
  EXPECT_TRUE(reader->DecodeBlock(2).ok());
  // And a full scan reports the corruption instead of mis-decoding.
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kDataLoss);
}

TEST(Kel2CrashTest, ImplausibleEventCountRejectedAtOpen) {
  const std::vector<Event> events = StencilStream(512, 11);
  const std::string path = WriteKel2("event_count.kel2", events, 256);
  StatusOr<Kel2Reader> pristine = Kel2Reader::Open(path);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine->NumBlocks(), 2);
  // Descriptors sit outside the block CRC. Flip the top byte of block 1's
  // u32 event_count (descriptor bytes 8..11): without the bound, ReadAll
  // would reserve billions of events and abort.
  const int64_t count_top_byte =
      pristine->blocks()[1].payload_pos -
      static_cast<int64_t>(kKel2DescriptorBytes) + 11;
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, count_top_byte, SEEK_SET), 0);
  std::fputc(0xff, f);
  std::fclose(f);

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().message().find("events in"), std::string::npos)
      << reader.status();
}

TEST(Kel2CrashTest, NotAKel2StoreRejected) {
  const std::string path = TempPath("junk.kel2");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("JUNKJUNK", 1, 8, f);
  std::fclose(f);
  EXPECT_EQ(Kel2Reader::Open(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(Kel2Reader::Open(TempPath("absent.kel2")).status().code(),
            StatusCode::kNotFound);
}

TEST(Kel2CrashTest, AppendAfterCloseFails) {
  const std::string path = TempPath("closed.kel2");
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  const Status status =
      writer->Append(MakeEvent(1, 1, EventType::kRead, 0, 1));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find(path), std::string::npos);
}

// ------------------------------------------------------ int64 range end --

TEST(Kel2RangeEndTest, WriterRefusesEventEndingPastInt64) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::string path = TempPath("range_end.kel2");
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const Event before = MakeEvent(1, 1, EventType::kPread, 0, 8);
  const Event after = MakeEvent(1, 1, EventType::kPread, 8, 8);
  ASSERT_TRUE(writer->Append(before).ok());
  const Status past_max =
      writer->Append(MakeEvent(1, 1, EventType::kPread, kMax - 4, 10));
  EXPECT_EQ(past_max.code(), StatusCode::kInvalidArgument) << past_max;
  const Status past_min =
      writer->Append(MakeEvent(1, 1, EventType::kPread, kMin, -1));
  EXPECT_EQ(past_min.code(), StatusCode::kInvalidArgument) << past_min;
  ASSERT_TRUE(writer->Append(after).ok());
  ASSERT_TRUE(writer->Close().ok());

  StatusOr<std::vector<Event>> got = ReadLineageStore(path);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, {before, after});
}

TEST(Kel2RangeEndTest, StoredEventEndingPastInt64IsDataLoss) {
  // A block no writer produces, with a valid CRC: one pread at
  // INT64_MAX-4 of 10 bytes. Its descriptor admits the query below, so
  // the decoded event reaches the query's end computation.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::string payload;
  AppendSignedVarint(1, &payload);  // pid
  AppendSignedVarint(1, &payload);  // file_id
  AppendU8(static_cast<uint8_t>(EventType::kPread), &payload);
  AppendVarint(1, &payload);
  AppendSignedVarint(kMax - 4, &payload);  // offset
  AppendSignedVarint(10, &payload);        // size
  AppendVarint(1, &payload);
  std::string store(kKel2Magic, sizeof(kKel2Magic));
  AppendU32(0, &store);
  AppendU32(static_cast<uint32_t>(payload.size()), &store);
  AppendU32(Crc32(payload.data(), payload.size()), &store);
  AppendU32(1, &store);
  AppendU32(0, &store);
  AppendI64(kMax - 4, &store);  // min_offset
  AppendI64(kMax, &store);      // max_end
  for (int i = 0; i < 4; ++i) {
    AppendI64(1, &store);  // pid and file_id bounds
  }
  store += payload;
  const std::string path = TempPath("range_end_crafted.kel2");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(store.data(), 1, store.size(), f), store.size());
  std::fclose(f);

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->NumBlocks(), 1);
  ProvenanceQuery query(&*reader);
  const StatusOr<std::vector<Event>> overlapping =
      query.EventsOverlapping(1, kMax - 10, kMax);
  EXPECT_EQ(overlapping.status().code(), StatusCode::kDataLoss)
      << overlapping.status();
}

// ----------------------------------------------------------------- query --

TEST(ProvenanceQueryTest, IntervalQueryMatchesBruteForce) {
  const std::vector<Event> events = ClusteredStream(5000, 31);
  const std::string path = WriteKel2("query.kel2", events, 128);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);

  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t begin = rng.UniformInt(0, 1 << 22);
    const int64_t end = begin + rng.UniformInt(1, 1 << 16);
    StatusOr<std::vector<Event>> got =
        query.EventsOverlapping(1, begin, end);
    ASSERT_TRUE(got.ok()) << got.status();
    std::vector<Event> want;
    for (const Event& event : events) {
      if (event.IsDataAccess() && event.id.file_id == 1 &&
          event.offset < end && begin < event.offset + event.size) {
        want.push_back(event);
      }
    }
    ExpectSameEvents(*got, want);
  }
}

TEST(ProvenanceQueryTest, BlockSkippingDecodesFewerBlocksThanFullScan) {
  // Two far-apart clusters: a query inside one cannot touch the other's
  // blocks.
  std::vector<Event> events;
  for (int64_t i = 0; i < 2048; ++i) {
    events.push_back(MakeEvent(1, 1, EventType::kPread, i * 16, 16));
  }
  for (int64_t i = 0; i < 2048; ++i) {
    events.push_back(
        MakeEvent(2, 1, EventType::kPread, (1 << 30) + i * 16, 16));
  }
  const std::string path = WriteKel2("skip.kel2", events, 256);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->NumBlocks(), 16);

  ProvenanceQuery query(&*reader);
  StatusOr<std::vector<Event>> got =
      query.EventsOverlapping(1, 0, 1024);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 64u);
  EXPECT_EQ(query.stats().blocks_considered, 16);
  EXPECT_EQ(query.stats().blocks_decoded, 1);
  EXPECT_EQ(query.stats().blocks_skipped, 15);
}

TEST(ProvenanceQueryTest, DecodeMemoServesRepeatedQueries) {
  const std::vector<Event> events = StencilStream(2000, 5);
  const std::string path = WriteKel2("memo.kel2", events, 128);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);
  ASSERT_TRUE(query.EventsOverlapping(1, 0, 1 << 20).ok());
  const int64_t decoded_once = query.stats().blocks_decoded;
  ASSERT_TRUE(query.EventsOverlapping(1, 0, 1 << 20).ok());
  EXPECT_EQ(query.stats().blocks_decoded, decoded_once);
  EXPECT_GT(query.stats().block_cache_hits, 0);
}

TEST(ProvenanceQueryTest, RunsTouchingAndPerRunCoverage) {
  std::vector<Event> events;
  events.push_back(MakeEvent(1, 1, EventType::kRead, 0, 110));
  events.push_back(MakeEvent(2, 1, EventType::kRead, 70, 30));
  events.push_back(MakeEvent(1, 1, EventType::kRead, 130, 20));
  events.push_back(MakeEvent(1, 1, EventType::kRead, 90, 30));
  events.push_back(MakeEvent(3, 2, EventType::kRead, 0, 50));
  const std::string path = WriteKel2("runs.kel2", events, 2);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);

  StatusOr<std::vector<int64_t>> runs = query.RunsTouching(1, 60, 80);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(*runs, (std::vector<int64_t>{1, 2}));

  runs = query.RunsTouching(1, 125, 128);
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(runs->empty());

  // The paper's worked example: merged access ranges [0,120) and [130,150).
  StatusOr<IntervalSet> ranges = query.AccessedRanges(1);
  ASSERT_TRUE(ranges.ok());
  EXPECT_EQ(ranges->ToString(), "[0,120) [130,150)");

  StatusOr<std::map<int64_t, int64_t>> coverage = query.PerRunCoverage(1);
  ASSERT_TRUE(coverage.ok());
  ASSERT_EQ(coverage->size(), 2u);
  EXPECT_EQ((*coverage)[1], 140);  // [0,120) merged + [130,150).
  EXPECT_EQ((*coverage)[2], 30);

  StatusOr<IntervalSet> run1 = query.AccessedRangesForRun(1, 1);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->ToString(), "[0,120) [130,150)");
}

// A zero-size read covers no byte, so no query matches it — whether or not
// a block holds only it (the writer's zone map covers positive sizes only).
TEST(ProvenanceQueryTest, ZeroSizeEventsMatchNoQueryAtAnyBlocking) {
  const std::vector<Event> events = {
      MakeEvent(1, 1, EventType::kPread, 50, 0),
      MakeEvent(2, 1, EventType::kPread, 0, 100)};
  const std::string one_per_block = WriteKel2("zero_size_1.kel2", events, 1);
  const std::string compacted = TempPath("zero_size_compacted.kel2");
  ASSERT_TRUE(CompactLineageStore(one_per_block, compacted).ok());
  for (const std::string& path :
       {one_per_block, WriteKel2("zero_size_2.kel2", events, 2), compacted}) {
    SCOPED_TRACE(path);
    StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    ProvenanceQuery query(&*reader);
    StatusOr<std::vector<Event>> hits = query.EventsOverlapping(1, 40, 60);
    ASSERT_TRUE(hits.ok()) << hits.status();
    ExpectSameEvents(*hits, {events[1]});
    StatusOr<std::vector<int64_t>> runs = query.RunsTouching(1, 40, 60);
    ASSERT_TRUE(runs.ok()) << runs.status();
    EXPECT_EQ(*runs, (std::vector<int64_t>{2}));
  }
}

TEST(ProvenanceQueryTest, CoverageHistogram) {
  std::vector<Event> events;
  events.push_back(MakeEvent(1, 1, EventType::kPread, 0, 100));
  events.push_back(MakeEvent(1, 1, EventType::kPread, 250, 100));
  const std::string path = WriteKel2("hist.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);
  StatusOr<std::vector<int64_t>> histogram = query.CoverageHistogram(1, 100);
  ASSERT_TRUE(histogram.ok()) << histogram.status();
  EXPECT_EQ(*histogram, (std::vector<int64_t>{100, 0, 50, 50}));
  EXPECT_FALSE(query.CoverageHistogram(1, 0).ok());
}

TEST(ProvenanceQueryTest, AccessedIndicesFeedTheCarver) {
  // End-to-end: audit a stencil-ish read pattern, persist to KEL2, query
  // the store, and map the ranges back to element indices.
  const std::string data_path = TempPath("prov_data.kdf");
  DataArray array(Shape({32}), DType::kFloat64);
  array.FillPattern(1);
  ASSERT_TRUE(WriteKdfFile(data_path, array).ok());

  const std::string store_path = TempPath("prov_audit.kel2");
  EventLog log;
  StatusOr<AuditReport> report = RunAudited(
      data_path, /*pid=*/7,
      [](TracedFile& file) -> Status {
        for (int64_t i = 4; i < 12; ++i) {
          KONDO_RETURN_IF_ERROR(file.ReadElement(Index({i})).status());
        }
        return OkStatus();
      },
      &log);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(MakeKel2Persister(store_path)(log).ok());

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(store_path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->NumEvents(), report->num_events);
  ProvenanceQuery query(&*reader);

  StatusOr<KdfReader> kdf = KdfReader::Open(data_path);
  ASSERT_TRUE(kdf.ok());
  OffsetMapper mapper(&kdf->layout(), kdf->payload_offset());
  StatusOr<IndexSet> indices = query.AccessedIndices(1, mapper);
  ASSERT_TRUE(indices.ok());
  EXPECT_EQ(indices->size(), report->accessed_indices.size());
  for (int64_t i = 4; i < 12; ++i) {
    EXPECT_TRUE(indices->Contains(Index({i})));
  }
  EXPECT_FALSE(indices->Contains(Index({3})));
}

// ------------------------------------------------ EventLog == KEL2 query --

// The in-memory EventLog views and the KEL2 zone-map queries answer the
// same lineage questions. Random multi-run streams — open/close/write
// traffic, zero and negative sizes, overlapping reads — persisted through
// the campaign sink must get the same answers from both.
TEST(EventLogKel2IdentityTest, ViewsMatchPersistedQueries) {
  constexpr EventType kTypes[] = {EventType::kOpen,  EventType::kRead,
                                  EventType::kPread, EventType::kMmap,
                                  EventType::kWrite, EventType::kClose};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    EventLog log;
    for (int i = 0; i < 600; ++i) {
      log.Record(MakeEvent(rng.UniformInt(1, 8), rng.UniformInt(1, 3),
                           kTypes[rng.UniformInt(0, 5)],
                           rng.UniformInt(-32, 2000),
                           rng.UniformInt(-16, 96)));
    }
    const std::string path =
        TempPath("identity_" + std::to_string(seed) + ".kel2");
    Kel2WriterOptions options;
    options.events_per_block = 64;
    StatusOr<CampaignLineageSink> sink =
        CampaignLineageSink::Create(path, options);
    ASSERT_TRUE(sink.ok()) << sink.status();
    ASSERT_TRUE(sink->persister()(log).ok());
    ASSERT_TRUE(sink->Close().ok());
    StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    ProvenanceQuery query(&*reader);

    for (int64_t file = 1; file <= 3; ++file) {
      StatusOr<IntervalSet> all = query.AccessedRanges(file);
      ASSERT_TRUE(all.ok()) << all.status();
      EXPECT_EQ(log.AccessedRanges(file), *all) << "file " << file;
      for (int64_t pid = 1; pid <= 8; ++pid) {
        StatusOr<IntervalSet> run = query.AccessedRangesForRun(pid, file);
        ASSERT_TRUE(run.ok()) << run.status();
        EXPECT_EQ(log.AccessedRangesForProcess(pid, file), *run)
            << "pid " << pid << " file " << file;
      }
      for (int q = 0; q < 16; ++q) {
        const int64_t begin = rng.UniformInt(-64, 2100);
        const int64_t end = begin + rng.UniformInt(1, 400);
        StatusOr<std::vector<Event>> overlapping =
            query.EventsOverlapping(file, begin, end);
        ASSERT_TRUE(overlapping.ok()) << overlapping.status();
        for (int64_t pid = 1; pid <= 8; ++pid) {
          SCOPED_TRACE("pid " + std::to_string(pid) + " file " +
                       std::to_string(file) + " [" + std::to_string(begin) +
                       "," + std::to_string(end) + ")");
          std::vector<Event> want;
          for (const Event& event : *overlapping) {
            if (event.id.pid == pid) {
              want.push_back(event);
            }
          }
          std::stable_sort(want.begin(), want.end(),
                           [](const Event& a, const Event& b) {
                             if (a.offset != b.offset) {
                               return a.offset < b.offset;
                             }
                             return a.size < b.size;
                           });
          ExpectSameEvents(log.LookupProcessRange(pid, file, begin, end),
                           want);
        }
      }
    }
  }
}

// --------------------------------------------------- persist + compaction --

TEST(PersistTest, CompactReblocksKel2PreservingEvents) {
  const std::vector<Event> events = ClusteredStream(3000, 17);
  const std::string in_path = WriteKel2("compact_in.kel2", events, 16);
  const std::string out_path = TempPath("compact_out.kel2");
  StatusOr<CompactStats> stats = CompactLineageStore(in_path, out_path);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->events, 3000);
  EXPECT_EQ(stats->blocks, 6);  // 3000 events at the default 512 per block.
  // Fewer, larger blocks carry fewer descriptors and longer delta runs.
  EXPECT_GT(stats->Ratio(), 1.0);

  StatusOr<std::vector<Event>> got = ReadLineageStore(out_path);
  ASSERT_TRUE(got.ok());
  ExpectSameEvents(*got, events);
}

TEST(PersistTest, RejectsNonPositiveBlockSize) {
  Kel2WriterOptions options;
  options.events_per_block = 0;
  EXPECT_EQ(Kel2Writer::Create(TempPath("badopts.kel2"), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kondo
