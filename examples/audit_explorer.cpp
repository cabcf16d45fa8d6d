// Raw audit-substrate demo: multi-process syscall-style event streams, the
// overlap-merging of Definition 4's worked example, per-process offset-range
// lookups, and byte-offset -> index recovery through file metadata.
// Registered as the ctest `example_audit_explorer`, which checks the worked
// example's output.

#include <cstdio>
#include <string>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "audit/event_log.h"
#include "audit/offset_mapper.h"
#include "audit/traced_file.h"

int main() {
  using namespace kondo;

  // --- the paper's worked example (Section IV-C) --------------------------
  std::printf("--- Definition 4 worked example ---\n");
  EventLog log;
  auto read_event = [](int64_t pid, int64_t offset, int64_t size) {
    Event event;
    event.id = EventId{pid, 1};
    event.type = EventType::kRead;
    event.offset = offset;
    event.size = size;
    return event;
  };
  for (const Event& event :
       {read_event(1, 0, 110), read_event(2, 70, 30), read_event(1, 130, 20),
        read_event(1, 90, 30)}) {
    std::printf("record %s\n", event.ToString().c_str());
    log.Record(event);
  }
  std::printf("merged accessed offsets: %s   (paper: (0,120) and (130,150))\n",
              log.AccessedRanges(1).ToString().c_str());
  std::printf("P1 only:                 %s\n",
              log.AccessedRangesForProcess(1, 1).ToString().c_str());
  std::printf("P2 only:                 %s\n\n",
              log.AccessedRangesForProcess(2, 1).ToString().c_str());

  // Per-process range lookup; hits come back in ascending offset order.
  std::printf("--- per-process offset-range lookup [80, 140) for P1 ---\n");
  for (const Event& event : log.LookupProcessRange(1, 1, 80, 140)) {
    std::printf("  hit %s\n", event.ToString().c_str());
  }

  // --- live interposition on a real file -----------------------------------
  std::printf("\n--- traced reads on a chunked KDF file ---\n");
  const std::string path = "/tmp/audit_explorer.kdf";
  DataArray array(Shape{8, 8}, DType::kFloat64);
  array.FillWith([](const Index& index) {
    return static_cast<double>(index[0] * 8 + index[1]);
  });
  if (!WriteKdfFile(path, array, LayoutKind::kChunked, {4, 4}).ok()) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }

  EventLog live;
  StatusOr<TracedFile> file = TracedFile::Open(path, /*pid=*/100, 7, &live);
  if (!file.ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  // Parent reads a row fragment; a "forked child" reads a column fragment.
  for (int64_t y = 2; y <= 5; ++y) {
    (void)file->ReadElement(Index{3, y});
  }
  file->SetPid(101);
  for (int64_t x = 0; x <= 3; ++x) {
    (void)file->ReadElement(Index{x, 6});
  }
  file->Close();

  for (const Event& event : live.events()) {
    std::printf("  %s\n", event.ToString().c_str());
  }

  // Recover the index subset from byte offsets via the file's metadata.
  OffsetMapper mapper(&file->reader().layout(),
                      file->reader().payload_offset());
  const IndexSet indices = mapper.IndicesForRanges(live.AccessedRanges(7));
  std::printf("\nrecovered %zu accessed indices:\n", indices.size());
  for (const Index& index : indices.ToIndices()) {
    std::printf("  %s = %.0f\n", index.ToString().c_str(), array.At(index));
  }
  std::remove(path.c_str());
  return 0;
}
