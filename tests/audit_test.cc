#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "audit/auditor.h"
#include "audit/event.h"
#include "audit/event_log.h"
#include "audit/offset_mapper.h"
#include "audit/traced_file.h"
#include "common/rng.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/persist.h"

#include <unistd.h>

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ----------------------------------------------------------------- Event --

TEST(EventTest, ToStringMatchesDefinitionFour) {
  Event event;
  event.id = EventId{7, 3};
  event.type = EventType::kPread;
  event.offset = 100;
  event.size = 16;
  EXPECT_EQ(event.ToString(), "<pid=7,file=3,pread,100,16>");
}

TEST(EventTest, DataAccessClassification) {
  Event event;
  for (EventType type : {EventType::kRead, EventType::kPread,
                         EventType::kMmap}) {
    event.type = type;
    EXPECT_TRUE(event.IsDataAccess());
  }
  for (EventType type : {EventType::kOpen, EventType::kWrite,
                         EventType::kClose}) {
    event.type = type;
    EXPECT_FALSE(event.IsDataAccess());
  }
}

// -------------------------------------------------------------- EventLog --

Event MakeRead(int64_t pid, int64_t file, int64_t offset, int64_t size) {
  Event event;
  event.id = EventId{pid, file};
  event.type = EventType::kRead;
  event.offset = offset;
  event.size = size;
  return event;
}

TEST(EventLogTest, PaperWorkedExample) {
  // e1(P1,R,0,110), e2(P2,R,70,30), e3(P1,R,130,20), e4(P1,R,90,30)
  // -> accessed offsets (0,120) and (130,150).
  EventLog log;
  log.Record(MakeRead(1, 1, 0, 110));
  log.Record(MakeRead(2, 1, 70, 30));
  log.Record(MakeRead(1, 1, 130, 20));
  log.Record(MakeRead(1, 1, 90, 30));
  EXPECT_EQ(log.AccessedRanges(1).ToString(), "[0,120) [130,150)");
}

TEST(EventLogTest, PerProcessRangesAreSeparate) {
  EventLog log;
  log.Record(MakeRead(1, 1, 0, 110));
  log.Record(MakeRead(2, 1, 70, 30));
  log.Record(MakeRead(1, 1, 130, 20));
  log.Record(MakeRead(1, 1, 90, 30));
  EXPECT_EQ(log.AccessedRangesForProcess(1, 1).ToString(),
            "[0,120) [130,150)");
  EXPECT_EQ(log.AccessedRangesForProcess(2, 1).ToString(), "[70,100)");
  EXPECT_TRUE(log.AccessedRangesForProcess(3, 1).empty());
}

TEST(EventLogTest, PerProcessLookupReturnsEvents) {
  EventLog log;
  log.Record(MakeRead(1, 1, 0, 50));
  log.Record(MakeRead(1, 1, 100, 50));
  log.Record(MakeRead(2, 1, 10, 5));
  const std::vector<Event> hits = log.LookupProcessRange(1, 1, 40, 110);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].offset, 0);
  EXPECT_EQ(hits[1].offset, 100);
  EXPECT_TRUE(log.LookupProcessRange(1, 1, 20, 20).empty());
}

TEST(EventLogTest, LookupOrdersByOffsetThenEndKeepingArrivalOrder) {
  EventLog log;
  log.Record(MakeRead(1, 1, 50, 10));
  log.Record(MakeRead(1, 1, 10, 30));
  log.Record(MakeRead(1, 1, 10, 5));
  Event second_copy = MakeRead(1, 1, 50, 10);
  second_copy.type = EventType::kPread;
  log.Record(second_copy);
  log.Record(MakeRead(1, 1, 0, 100));
  const std::vector<Event> hits = log.LookupProcessRange(1, 1, 0, 1000);
  ASSERT_EQ(hits.size(), 5u);
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {0, 100}, {10, 5}, {10, 30}, {50, 10}, {50, 10}};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(hits[i].offset, want[i].first) << i;
    EXPECT_EQ(hits[i].size, want[i].second) << i;
  }
  // Equal ranges come back in arrival order.
  EXPECT_EQ(hits[3].type, EventType::kRead);
  EXPECT_EQ(hits[4].type, EventType::kPread);
}

TEST(EventLogTest, FilesAreIndependent) {
  EventLog log;
  log.Record(MakeRead(1, 1, 0, 10));
  log.Record(MakeRead(1, 2, 50, 10));
  EXPECT_EQ(log.AccessedRanges(1).ToString(), "[0,10)");
  EXPECT_EQ(log.AccessedRanges(2).ToString(), "[50,60)");
  EXPECT_TRUE(log.AccessedRanges(3).empty());
}

TEST(EventLogTest, TracksWrites) {
  EventLog log;
  EXPECT_FALSE(log.HasWrites(1));
  Event write = MakeRead(1, 1, 0, 10);
  write.type = EventType::kWrite;
  log.Record(write);
  EXPECT_TRUE(log.HasWrites(1));
  EXPECT_FALSE(log.HasWrites(2));
  // Writes do not count as accessed read ranges.
  EXPECT_TRUE(log.AccessedRanges(1).empty());
}

TEST(EventLogTest, NonDataEventsAreRecordedButNotIndexed) {
  EventLog log;
  Event open = MakeRead(1, 1, 0, 0);
  open.type = EventType::kOpen;
  log.Record(open);
  EXPECT_EQ(log.NumEvents(), 1);
  EXPECT_TRUE(log.AccessedRanges(1).empty());
}

TEST(EventLogTest, ZeroSizeReadIgnoredByIndex) {
  EventLog log;
  log.Record(MakeRead(1, 1, 42, 0));
  EXPECT_TRUE(log.AccessedRanges(1).empty());
}

TEST(EventLogTest, ClearResetsEverything) {
  EventLog log;
  log.Record(MakeRead(1, 1, 0, 10));
  log.Clear();
  EXPECT_EQ(log.NumEvents(), 0);
  EXPECT_TRUE(log.AccessedRanges(1).empty());
}

TEST(EventLogTest, ManyEventsBuildDeepIndex) {
  EventLog log;
  Rng rng(3);
  IntervalSet reference;
  for (int i = 0; i < 3000; ++i) {
    const int64_t offset = rng.UniformInt(0, 100000);
    const int64_t size = rng.UniformInt(1, 64);
    log.Record(MakeRead(1, 1, offset, size));
    reference.Add(offset, offset + size);
  }
  EXPECT_EQ(log.AccessedRanges(1), reference);
}

// ---------------------------------------------------------- OffsetMapper --

TEST(OffsetMapperTest, RangesToIndicesRowMajor) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  OffsetMapper mapper(&layout, /*payload_offset=*/24);
  IntervalSet ranges;
  ranges.Add(24, 24 + 3 * 8);  // First three elements.
  const IndexSet indices = mapper.IndicesForRanges(ranges);
  EXPECT_EQ(indices.size(), 3u);
  EXPECT_TRUE(indices.Contains(Index{0, 0}));
  EXPECT_TRUE(indices.Contains(Index{0, 2}));
}

TEST(OffsetMapperTest, HeaderBytesMapToNothing) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  OffsetMapper mapper(&layout, 24);
  IntervalSet ranges;
  ranges.Add(0, 24);  // Pure header read.
  EXPECT_TRUE(mapper.IndicesForRanges(ranges).empty());
}

TEST(OffsetMapperTest, PartialElementCountsAsAccessed) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  OffsetMapper mapper(&layout, 0);
  IntervalSet ranges;
  ranges.Add(4, 12);  // Second half of element 0, first half of element 1.
  const IndexSet indices = mapper.IndicesForRanges(ranges);
  EXPECT_EQ(indices.size(), 2u);
}

TEST(OffsetMapperTest, ChunkedPaddingSkipped) {
  ChunkedLayout layout(Shape{3, 3}, DType::kFloat64, {2, 2});
  OffsetMapper mapper(&layout, 0);
  IntervalSet ranges;
  ranges.Add(0, layout.PayloadBytes());  // Whole payload incl. padding.
  EXPECT_EQ(mapper.IndicesForRanges(ranges).size(), 9u);
}

TEST(OffsetMapperTest, RoundTripIndexSet) {
  ChunkedLayout layout(Shape{6, 6}, DType::kFloat128, {4, 4});
  OffsetMapper mapper(&layout, 100);
  IndexSet indices(layout.shape());
  indices.Insert(Index{0, 0});
  indices.Insert(Index{5, 5});
  indices.Insert(Index{2, 3});
  const IntervalSet ranges = mapper.RangesForIndices(indices);
  const IndexSet back = mapper.IndicesForRanges(ranges);
  EXPECT_EQ(back.size(), indices.size());
  indices.ForEach([&back](const Index& index) {
    EXPECT_TRUE(back.Contains(index));
  });
}

// ------------------------------------------------------------ TracedFile --

class TracedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataArray array(Shape{8, 8}, DType::kFloat64);
    array.FillWith([](const Index& index) {
      return static_cast<double>(index[0] * 8 + index[1]);
    });
    // Unique per test case: ctest runs the cases as separate processes, so
    // a shared fixture file would race under a parallel test driver.
    path_ = TempPath(std::string("traced-") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".kdf");
    ASSERT_TRUE(WriteKdfFile(path_, array).ok());
  }

  std::string path_;
};

TEST_F(TracedFileTest, OpenLogsOpenEvent) {
  EventLog log;
  StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 9, &log);
  ASSERT_TRUE(file.ok());
  ASSERT_GE(log.NumEvents(), 1);
  EXPECT_EQ(log.events()[0].type, EventType::kOpen);
  EXPECT_EQ(log.events()[0].id.file_id, 9);
}

TEST_F(TracedFileTest, ReadElementLogsPreadWithElementRange) {
  EventLog log;
  StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 1, &log);
  ASSERT_TRUE(file.ok());
  StatusOr<double> value = file->ReadElement(Index{2, 3});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 19.0);
  const Event& event = log.events().back();
  EXPECT_EQ(event.type, EventType::kPread);
  EXPECT_EQ(event.size, 8);
  // Offset = header + linear(2,3)*8 = 24 + 19*8.
  EXPECT_EQ(event.offset, 24 + 19 * 8);
}

TEST_F(TracedFileTest, CloseIsIdempotentAndLogged) {
  EventLog log;
  {
    StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 1, &log);
    ASSERT_TRUE(file.ok());
    file->Close();
    file->Close();
  }
  int close_events = 0;
  for (const Event& event : log.events()) {
    if (event.type == EventType::kClose) {
      ++close_events;
    }
  }
  EXPECT_EQ(close_events, 1);
}

TEST_F(TracedFileTest, DestructorLogsClose) {
  EventLog log;
  {
    StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 1, &log);
    ASSERT_TRUE(file.ok());
  }
  EXPECT_EQ(log.events().back().type, EventType::kClose);
}

TEST_F(TracedFileTest, NullLogDisablesAuditing) {
  StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 1, nullptr);
  ASSERT_TRUE(file.ok());
  StatusOr<double> value = file->ReadElement(Index{0, 1});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 1.0);
  EXPECT_EQ(file->access_count(), 1);
}

TEST_F(TracedFileTest, MultiProcessEventsViaSetPid) {
  EventLog log;
  StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 1, &log);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->ReadElement(Index{0, 0}).ok());
  file->SetPid(2);
  ASSERT_TRUE(file->ReadElement(Index{0, 1}).ok());
  EXPECT_FALSE(log.AccessedRangesForProcess(1, 1).empty());
  EXPECT_FALSE(log.AccessedRangesForProcess(2, 1).empty());
}

TEST_F(TracedFileTest, TouchMmapLogsWithoutReading) {
  EventLog log;
  StatusOr<TracedFile> file = TracedFile::Open(path_, 1, 1, &log);
  ASSERT_TRUE(file.ok());
  file->TouchMmap(24, 64);
  EXPECT_EQ(log.AccessedRanges(1).ToString(), "[24,88)");
}

// --------------------------------------------------------------- Auditor --

TEST_F(TracedFileTest, RunAuditedRecoversIndexSubset) {
  StatusOr<AuditReport> report =
      RunAudited(path_, /*pid=*/1, [](TracedFile& file) {
        KONDO_RETURN_IF_ERROR(file.ReadElement(Index{1, 1}).status());
        KONDO_RETURN_IF_ERROR(file.ReadElement(Index{1, 2}).status());
        KONDO_RETURN_IF_ERROR(file.ReadElement(Index{1, 1}).status());
        return OkStatus();
      });
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->accessed_indices.size(), 2u);
  EXPECT_TRUE(report->accessed_indices.Contains(Index{1, 1}));
  EXPECT_TRUE(report->accessed_indices.Contains(Index{1, 2}));
  EXPECT_FALSE(report->saw_writes);
  // Adjacent elements coalesce into one byte range.
  EXPECT_EQ(report->accessed_ranges.size(), 1u);
}

TEST_F(TracedFileTest, RunAuditedPropagatesBodyError) {
  StatusOr<AuditReport> report = RunAudited(
      path_, 1, [](TracedFile&) { return InternalError("boom"); });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

// -------------------------------------------- durable store crash safety --

Event StoreEvent(int64_t pid, int64_t offset, int64_t size) {
  Event event;
  event.id = EventId{pid, 1};
  event.type = EventType::kPread;
  event.offset = offset;
  event.size = size;
  return event;
}

/// Torn-write tolerance of the KEL2 store: write three events, truncate
/// the file five bytes short, and assert the reader drops exactly the torn
/// trailing block. The torn unit is a whole block, so the parameter picks
/// the block size: "kel2" seals one event per block (two events survive),
/// "kel2_one_block" seals all three into one block (none survive).
class TornWriteTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TornWriteTest, TruncationDropsExactlyThePartialTail) {
  const bool one_block = std::string(GetParam()) == "kel2_one_block";
  const std::string path =
      TempPath(std::string("torn_param.") + GetParam());
  const std::vector<Event> events = {StoreEvent(1, 0, 8),
                                     StoreEvent(1, 8, 8),
                                     StoreEvent(2, 100, 8)};
  Kel2WriterOptions options;
  options.events_per_block = one_block ? 3 : 1;
  const int64_t intact = one_block ? 0 : 2;  // Events surviving the cut.
  {
    StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
    ASSERT_TRUE(writer.ok());
    for (const Event& event : events) {
      ASSERT_TRUE(writer->Append(event).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }

  StatusOr<int64_t> full = FileSizeBytes(path);
  ASSERT_TRUE(full.ok());
  // Chop into (not at) the final block's payload.
  ASSERT_EQ(::truncate(path.c_str(), *full - 5), 0);

  StatusOr<std::vector<Event>> got = ReadLineageStore(path);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(static_cast<int64_t>(got->size()), intact);
  for (int64_t i = 0; i < intact; ++i) {
    EXPECT_EQ((*got)[static_cast<size_t>(i)].offset, events[i].offset);
    EXPECT_EQ((*got)[static_cast<size_t>(i)].id.pid, events[i].id.pid);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, TornWriteTest,
                         ::testing::Values("kel2", "kel2_one_block"));

// ------------------------------------------ event store error reporting --

TEST(EventStoreErrorTest, AppendAfterCloseNamesTheStore) {
  const std::string path = TempPath("closed_named.kel2");
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  const Status status = writer->Append(StoreEvent(1, 0, 8));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
}

TEST(EventStoreErrorTest, ShortWriteReportsSizes) {
  // /dev/full fails every flush with ENOSPC; with the default 4 KiB stdio
  // buffer the failure surfaces inside some block write (or at Close). The
  // regression under test: the status must name the device and report how
  // many of the block's bytes made it out.
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full not available";
  }
  std::fclose(probe);

  Kel2WriterOptions options;
  options.events_per_block = 1;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create("/dev/full", options);
  ASSERT_TRUE(writer.ok());
  Status failure = OkStatus();
  for (int i = 0; i < 500 && failure.ok(); ++i) {
    failure = writer->Append(StoreEvent(1, i * 8, 8));
  }
  if (failure.ok()) {
    failure = writer->Close();
  }
  ASSERT_FALSE(failure.ok());
  if (failure.message().find("short write") != std::string::npos) {
    EXPECT_NE(failure.message().find(" bytes"), std::string::npos)
        << failure.message();
    EXPECT_NE(failure.message().find("wrote "), std::string::npos)
        << failure.message();
  }
  EXPECT_NE(failure.message().find("/dev/full"), std::string::npos)
      << failure.message();
}

}  // namespace
}  // namespace kondo
