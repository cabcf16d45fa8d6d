// Section V-D6 — overhead of I/O event auditing: the benchmark programs
// run against real KDF data files with increasing sizes, through the bare
// file reader and through the interposition shim (recording every event,
// then merging the file's accessed ranges and one per-process offset-range
// lookup over the recorded events). Each row times 5 alternating
// raw/audited pairs and prints the medians: raw time, audited time and the
// overhead of a pair. The paper reports ~31% average overhead.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "audit/auditor.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

// Alternating raw/audited measurements per row; the table prints medians.
constexpr int kPairs = 5;

struct OverheadRow {
  std::string program;
  int64_t n;
  int64_t io_calls;
  double raw_seconds;
  double audited_seconds;
  double overhead;
};

// Times `repeats` executions of `program` on the KDF at `path`, through the
// bare reader or, when `audited`, through the shim with an event log:
// record + merge + one range lookup, the full pipeline of Section IV-C.
double TimeExecutions(const Program& program, const ParamValue& v,
                      const std::string& path, int repeats, bool audited,
                      int64_t* io_calls) {
  Stopwatch stopwatch;
  for (int rep = 0; rep < repeats; ++rep) {
    EventLog log;
    StatusOr<TracedFile> file =
        TracedFile::Open(path, 1, 1, audited ? &log : nullptr);
    KONDO_CHECK(file.ok());
    KONDO_CHECK(program.ExecuteOnFile(v, *file).ok());
    *io_calls = file->access_count();
    if (audited) {
      file->Close();
      benchmark::DoNotOptimize(log.AccessedRanges(1).TotalLength());
      benchmark::DoNotOptimize(
          log.LookupProcessRange(1, 1, 0, file->reader().FileBytes()).size());
    }
  }
  return stopwatch.ElapsedSeconds();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

OverheadRow MeasureOne(const std::string& name, int64_t n, int repeats) {
  const std::unique_ptr<Program> program = CreateProgram(name, n);
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(1);
  const std::string path =
      "/tmp/kondo_bench_" + name + "_" + std::to_string(n) + ".kdf";
  KONDO_CHECK(WriteKdfFile(path, array).ok());

  // A heavyweight valuation: mid-range parameters are useful for every
  // benchmark program family.
  ParamValue v;
  for (int i = 0; i < program->param_space().num_params(); ++i) {
    const ParamRange& r = program->param_space().range(i);
    v.push_back(std::floor((r.lo + r.hi) / 2));
  }

  OverheadRow row;
  row.program = name;
  row.n = n;

  // Adaptive repetition: keep executing until the raw measurement is long
  // enough (>= 20 ms) to be stable on a noisy machine.
  constexpr double kMinMeasureSeconds = 0.02;
  int effective_repeats = repeats;
  while (TimeExecutions(*program, v, path, effective_repeats, false,
                        &row.io_calls) < kMinMeasureSeconds &&
         effective_repeats <= 1000000) {
    effective_repeats *= 4;
  }

  // kPairs alternating raw/audited measurements. A slow stretch of the
  // machine lasting one pair moves that pair only, and the medians drop it.
  std::vector<double> raw;
  std::vector<double> audited;
  std::vector<double> overhead;
  int64_t audited_io_calls = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    raw.push_back(TimeExecutions(*program, v, path, effective_repeats, false,
                                 &row.io_calls));
    audited.push_back(TimeExecutions(*program, v, path, effective_repeats,
                                     true, &audited_io_calls));
    overhead.push_back(raw.back() > 0.0
                           ? (audited.back() - raw.back()) / raw.back()
                           : 0.0);
  }
  row.raw_seconds = Median(raw);
  row.audited_seconds = Median(audited);
  row.overhead = Median(overhead);
  std::remove(path.c_str());
  return row;
}

void PrintTable() {
  const int repeats = bench::EnvInt("KONDO_BENCH_AUDIT_REPS", 20);
  std::printf("=== §V-D6: I/O event auditing overhead ===\n");
  std::printf("(each row: medians of %d alternating raw/audited pairs)\n\n",
              kPairs);
  std::printf("%-7s %6s %10s %10s %10s %10s\n", "prog", "n", "io-calls",
              "raw s", "audited s", "overhead");
  double sum = 0.0;
  int rows = 0;
  const std::vector<std::pair<std::string, std::vector<int64_t>>> cases = {
      {"CS", {32, 48, 64, 96, 128}},
      {"PRL", {32, 48, 64, 96, 128}},
      {"LDC", {32, 48, 64, 96, 128}},
      {"RDC", {32, 48, 64, 96, 128}},
      {"PRL3D", {16, 24, 32, 48, 64}},
      {"LDC3D", {16, 24, 32, 48, 64}},
  };
  for (const auto& [name, sizes] : cases) {
    for (int64_t n : sizes) {
      const OverheadRow row = MeasureOne(name, n, repeats);
      std::printf("%-7s %6lld %10lld %10.4f %10.4f %9.1f%%\n",
                  row.program.c_str(), static_cast<long long>(row.n),
                  static_cast<long long>(row.io_calls), row.raw_seconds,
                  row.audited_seconds, 100.0 * row.overhead);
      sum += row.overhead;
      ++rows;
    }
  }
  std::printf("%-7s %49.1f%%\n", "mean", 100.0 * sum / rows);
  std::printf("(paper: ~31%% average auditing overhead)\n\n");
}

void BM_AuditedElementRead(benchmark::State& state) {
  DataArray array(Shape{64, 64}, DType::kFloat64);
  const std::string path = "/tmp/kondo_bench_audited_read.kdf";
  KONDO_CHECK(WriteKdfFile(path, array).ok());
  EventLog log;
  StatusOr<TracedFile> file = TracedFile::Open(path, 1, 1, &log);
  KONDO_CHECK(file.ok());
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        file->ReadElement(Index{i % 64, (i * 7) % 64}));
    ++i;
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_AuditedElementRead);

void BM_RawElementRead(benchmark::State& state) {
  DataArray array(Shape{64, 64}, DType::kFloat64);
  const std::string path = "/tmp/kondo_bench_raw_read.kdf";
  KONDO_CHECK(WriteKdfFile(path, array).ok());
  StatusOr<TracedFile> file = TracedFile::Open(path, 1, 1, nullptr);
  KONDO_CHECK(file.ok());
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        file->ReadElement(Index{i % 64, (i * 7) % 64}));
    ++i;
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_RawElementRead);

}  // namespace
}  // namespace kondo

int main(int argc, char** argv) {
  kondo::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
