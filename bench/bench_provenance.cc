// Compression ratio and in-situ query latency of the KEL2 block-compressed
// lineage store, over the three access patterns of the acceptance suite
// (sequential stencil, uniform random, clustered). The size ratio is taken
// against the arithmetic baseline of a fixed-width 40-byte record per
// event; the query speed-up against a full decode of the same store
// followed by a filter. Emits BENCH_provenance.json in the working
// directory.
//
// Knobs: KONDO_BENCH_PROV_EVENTS (default 200000),
//        KONDO_BENCH_PROV_REPS (default 5).

#include <cstdio>
#include <string>
#include <vector>

#include "audit/event.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/persist.h"
#include "provenance/provenance_query.h"

namespace kondo {
namespace {

Event MakeEvent(int64_t pid, EventType type, int64_t offset, int64_t size) {
  Event event;
  event.id = EventId{pid, 1};
  event.type = type;
  event.offset = offset;
  event.size = size;
  return event;
}

/// Near-sequential stencil sweeps: the pattern the paper's audited
/// re-executions produce and the one KEL2's delta coding targets.
std::vector<Event> StencilStream(int64_t n, Rng* rng) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  int64_t pid = 0;
  int64_t offset = 0;
  const int64_t width = 16;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 8192 == 0) {
      ++pid;
      offset = rng->UniformInt(0, 4096);
    }
    events.push_back(MakeEvent(pid, EventType::kPread, offset, width));
    offset += width;
  }
  return events;
}

std::vector<Event> UniformStream(int64_t n, Rng* rng) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    events.push_back(MakeEvent(rng->UniformInt(1, 16), EventType::kPread,
                               rng->UniformInt(0, 1 << 28),
                               rng->UniformInt(1, 4096)));
  }
  return events;
}

std::vector<Event> ClusteredStream(int64_t n, Rng* rng) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(events.size()) < n) {
    int64_t offset = rng->UniformInt(0, 1 << 28);
    const int64_t pid = rng->UniformInt(1, 8);
    const int64_t burst = rng->UniformInt(16, 256);
    for (int64_t i = 0;
         i < burst && static_cast<int64_t>(events.size()) < n; ++i) {
      const int64_t size = rng->UniformInt(8, 256);
      events.push_back(MakeEvent(pid, EventType::kPread, offset, size));
      offset += size;
    }
  }
  return events;
}

struct PatternResult {
  std::string pattern;
  int64_t events = 0;
  int64_t baseline_bytes = 0;  // 40 bytes per event, fixed width.
  int64_t kel2_bytes = 0;
  int64_t kel2_blocks = 0;
  double ratio = 0.0;
  double write_kel2_seconds = 0.0;
  double full_scan_seconds = 0.0;  // Decode every block, then filter.
  double in_situ_seconds = 0.0;    // KEL2 descriptor-pruned query.
  double speedup = 0.0;
  int64_t blocks_total = 0;
  int64_t blocks_decoded = 0;
  int64_t blocks_skipped = 0;
  int64_t query_matches = 0;
};

StatusOr<PatternResult> RunPattern(const std::string& name,
                                   const std::vector<Event>& events,
                                   int reps) {
  PatternResult result;
  result.pattern = name;
  result.events = static_cast<int64_t>(events.size());
  const std::string kel2_path = "/tmp/kondo_bench_prov_" + name + ".kel2";

  {
    Stopwatch stopwatch;
    KONDO_ASSIGN_OR_RETURN(Kel2Writer writer, Kel2Writer::Create(kel2_path));
    for (const Event& event : events) {
      KONDO_RETURN_IF_ERROR(writer.Append(event));
    }
    KONDO_RETURN_IF_ERROR(writer.Close());
    result.write_kel2_seconds = stopwatch.ElapsedSeconds();
  }

  result.baseline_bytes = 40 * result.events;
  KONDO_ASSIGN_OR_RETURN(result.kel2_bytes, FileSizeBytes(kel2_path));
  result.ratio = static_cast<double>(result.baseline_bytes) /
                 static_cast<double>(result.kel2_bytes);

  // Interval query: a 64 KiB window in the low quarter of the offset
  // space, the "which runs touched [a,b) of file F" question.
  const int64_t begin = 1 << 16;
  const int64_t end = begin + (1 << 16);

  {
    Stopwatch stopwatch;
    for (int rep = 0; rep < reps; ++rep) {
      KONDO_ASSIGN_OR_RETURN(std::vector<Event> all,
                             ReadLineageStore(kel2_path));
      int64_t matches = 0;
      for (const Event& event : all) {
        if (event.IsDataAccess() && event.id.file_id == 1 &&
            event.offset < end && begin < event.offset + event.size) {
          ++matches;
        }
      }
      result.query_matches = matches;
    }
    result.full_scan_seconds =
        stopwatch.ElapsedSeconds() / static_cast<double>(reps);
  }
  {
    Stopwatch stopwatch;
    for (int rep = 0; rep < reps; ++rep) {
      KONDO_ASSIGN_OR_RETURN(Kel2Reader reader, Kel2Reader::Open(kel2_path));
      ProvenanceQuery query(&reader);
      KONDO_ASSIGN_OR_RETURN(std::vector<Event> matches,
                             query.EventsOverlapping(1, begin, end));
      if (static_cast<int64_t>(matches.size()) != result.query_matches) {
        return InternalError("in-situ query disagrees with the full scan");
      }
      result.blocks_total = reader.NumBlocks();
      result.blocks_decoded = query.stats().blocks_decoded;
      result.blocks_skipped = query.stats().blocks_skipped;
    }
    result.in_situ_seconds =
        stopwatch.ElapsedSeconds() / static_cast<double>(reps);
  }
  result.kel2_blocks = result.blocks_total;
  result.speedup = result.in_situ_seconds > 0.0
                       ? result.full_scan_seconds / result.in_situ_seconds
                       : 0.0;

  std::remove(kel2_path.c_str());
  return result;
}

void PrintRow(const PatternResult& r) {
  std::printf("%-10s %8lld ev  40B/ev %9lld B  KEL2 %9lld B  %5.2fx smaller  "
              "query %8.3f ms -> %8.3f ms (decoded %lld/%lld blocks, "
              "%lld skipped)\n",
              r.pattern.c_str(), static_cast<long long>(r.events),
              static_cast<long long>(r.baseline_bytes),
              static_cast<long long>(r.kel2_bytes), r.ratio,
              1e3 * r.full_scan_seconds, 1e3 * r.in_situ_seconds,
              static_cast<long long>(r.blocks_decoded),
              static_cast<long long>(r.blocks_total),
              static_cast<long long>(r.blocks_skipped));
}

void WriteJson(const std::vector<PatternResult>& results,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"provenance\",\n  \"patterns\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const PatternResult& r = results[i];
    std::fprintf(
        f,
        "    {\"pattern\": \"%s\", \"events\": %lld,\n"
        "     \"baseline_bytes\": %lld, \"kel2_bytes\": %lld, "
        "\"size_ratio\": %.4f,\n"
        "     \"write_kel2_seconds\": %.6f,\n"
        "     \"full_scan_query_seconds\": %.6f, "
        "\"in_situ_query_seconds\": %.6f, \"query_speedup\": %.4f,\n"
        "     \"blocks_total\": %lld, \"blocks_decoded\": %lld, "
        "\"blocks_skipped\": %lld, \"query_matches\": %lld}%s\n",
        r.pattern.c_str(), static_cast<long long>(r.events),
        static_cast<long long>(r.baseline_bytes),
        static_cast<long long>(r.kel2_bytes), r.ratio,
        r.write_kel2_seconds, r.full_scan_seconds,
        r.in_situ_seconds, r.speedup,
        static_cast<long long>(r.blocks_total),
        static_cast<long long>(r.blocks_decoded),
        static_cast<long long>(r.blocks_skipped),
        static_cast<long long>(r.query_matches),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const int64_t n = bench::EnvInt("KONDO_BENCH_PROV_EVENTS", 200000);
  const int reps = bench::EnvInt("KONDO_BENCH_PROV_REPS", 5);
  Rng rng(42);

  std::vector<PatternResult> results;
  const struct {
    const char* name;
    std::vector<Event> (*make)(int64_t, Rng*);
  } kPatterns[] = {{"stencil", StencilStream},
                   {"uniform", UniformStream},
                   {"clustered", ClusteredStream}};
  for (const auto& pattern : kPatterns) {
    Rng fork = rng.Fork();
    StatusOr<PatternResult> result =
        RunPattern(pattern.name, pattern.make(n, &fork), reps);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", pattern.name,
                   result.status().ToString().c_str());
      return 1;
    }
    PrintRow(*result);
    results.push_back(*std::move(result));
  }
  WriteJson(results, "BENCH_provenance.json");

  // The acceptance gates: stencil streams must shrink >=3x, and the
  // interval query must decode strictly fewer blocks than a full scan.
  bool ok = true;
  if (results[0].ratio < 3.0) {
    std::fprintf(stderr, "FAIL: stencil ratio %.2f < 3.0\n",
                 results[0].ratio);
    ok = false;
  }
  for (const PatternResult& r : results) {
    if (r.blocks_total > 1 && r.blocks_decoded >= r.blocks_total) {
      std::fprintf(stderr, "FAIL: %s decoded every block (%lld)\n",
                   r.pattern.c_str(),
                   static_cast<long long>(r.blocks_decoded));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kondo

int main() { return kondo::Run(); }
