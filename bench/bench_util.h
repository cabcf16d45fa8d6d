#ifndef KONDO_BENCH_BENCH_UTIL_H_
#define KONDO_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/afl_fuzzer.h"
#include "baselines/brute_force.h"
#include "carve/carver.h"
#include "common/stopwatch.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "workloads/registry.h"

namespace kondo::bench {

// All bench timing goes through Stopwatch (common/stopwatch.h), which is
// pinned to std::chrono::steady_clock: timings and ratios must come from a
// monotonic clock, never from wall-clock sources that can step under NTP
// adjustment. Keep system_clock / gettimeofday out of the bench and report
// paths.

/// Mean and (sample) standard deviation of a series.
struct Series {
  double mean = 0.0;
  double stdev = 0.0;
  int count = 0;
};

inline Series Summarize(const std::vector<double>& values) {
  Series series;
  series.count = static_cast<int>(values.size());
  if (values.empty()) {
    return series;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  series.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) {
      sq += (v - series.mean) * (v - series.mean);
    }
    series.stdev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return series;
}

/// Reads a double/int knob from the environment with a default — used to
/// scale bench budgets to the machine (e.g. KONDO_BENCH_SECONDS=2).
inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Per-tool accuracy outcome of one campaign.
struct ToolOutcome {
  double precision = 0.0;
  double recall = 0.0;
  double seconds = 0.0;
  double subset_size = 0.0;
};

/// Simulated cost of one program execution in microseconds, charged
/// uniformly to every tool. The paper's debloat tests execute the target
/// program as a real process per valuation; this in-process harness would
/// otherwise make executions ~microseconds and let brute force exhaust Θ
/// inside any budget. Override with KONDO_BENCH_EXEC_MICROS (0 disables).
inline int64_t ExecCostMicros() {
  static const int64_t value = EnvInt("KONDO_BENCH_EXEC_MICROS", 200);
  return value;
}

/// Wraps the fast debloat test with the uniform simulated execution cost.
inline DebloatTestFn MakeCostedDebloatTest(const Program& program) {
  const int64_t cost = ExecCostMicros();
  return [&program, cost](const ParamValue& v) {
    BusyWaitMicros(cost);
    return program.AccessSet(v);
  };
}

/// Runs Kondo on `program` under an optional wall-clock fuzz budget and
/// reports accuracy against the cached ground truth.
inline ToolOutcome RunKondoOnce(const Program& program, uint64_t seed,
                                double budget_seconds,
                                const KondoConfig& base = KondoConfig{}) {
  KondoConfig config = base;
  config.rng_seed = seed;
  if (budget_seconds > 0.0) {
    config.fuzz.max_seconds = budget_seconds;
  }
  const KondoResult result = KondoPipeline(config).RunWithTest(
      MakeCostedDebloatTest(program), program.param_space(),
      program.data_shape());
  const AccuracyMetrics metrics =
      ComputeAccuracy(program.GroundTruth(), result.approx);
  return ToolOutcome{metrics.precision, metrics.recall,
                     result.fuzz_seconds + result.carve_seconds +
                         result.rasterize_seconds,
                     static_cast<double>(result.approx.size())};
}

/// Runs the BF baseline under a wall-clock budget.
inline ToolOutcome RunBruteForceOnce(const Program& program, uint64_t seed,
                                     double budget_seconds) {
  BruteForceConfig config;
  config.max_seconds = budget_seconds;
  config.rng_seed = seed;
  config.exec_overhead_micros = ExecCostMicros();
  const BruteForceResult result = RunBruteForce(program, config);
  const AccuracyMetrics metrics =
      ComputeAccuracy(program.GroundTruth(), result.discovered);
  return ToolOutcome{metrics.precision, metrics.recall,
                     result.elapsed_seconds,
                     static_cast<double>(result.discovered.size())};
}

/// Runs the AFL baseline under a wall-clock budget. AFL pays the uniform
/// execution cost plus its own instrumentation bookkeeping (AflConfig
/// default).
inline ToolOutcome RunAflOnce(const Program& program, uint64_t seed,
                              double budget_seconds) {
  AflConfig config;
  config.max_seconds = budget_seconds;
  config.rng_seed = seed;
  config.exec_overhead_micros += ExecCostMicros();
  AflFuzzer fuzzer(program, config);
  const AflResult result = fuzzer.Run();
  const AccuracyMetrics metrics =
      ComputeAccuracy(program.GroundTruth(), result.coverage);
  return ToolOutcome{metrics.precision, metrics.recall,
                     result.elapsed_seconds,
                     static_cast<double>(result.coverage.size())};
}

/// Runs Kondo's fuzzer but carves with the Simple Convex baseline (§V-C).
inline ToolOutcome RunSimpleConvexOnce(const Program& program, uint64_t seed,
                                       double budget_seconds) {
  KondoConfig config;
  config.rng_seed = seed;
  if (budget_seconds > 0.0) {
    config.fuzz.max_seconds = budget_seconds;
  }
  FuzzSchedule schedule(program.param_space(), program.data_shape(),
                        config.fuzz, seed);
  const FuzzResult fuzz = schedule.Run(MakeCostedDebloatTest(program));
  const IndexSet approx = SimpleConvexCarve(fuzz.discovered).Rasterize();
  const AccuracyMetrics metrics =
      ComputeAccuracy(program.GroundTruth(), approx);
  return ToolOutcome{metrics.precision, metrics.recall,
                     fuzz.stats.elapsed_seconds,
                     static_cast<double>(approx.size())};
}

/// The paper's per-program budget (§V-C): "We chose a time budget for Kondo
/// to reach at least 97% of its eventual recall" — i.e. roughly the wall
/// time of one converged Kondo campaign. The same budget is then granted to
/// every tool. A calibration run (seed 1000) measures it.
inline double CalibrateBudgetSeconds(const Program& program) {
  const ToolOutcome outcome =
      RunKondoOnce(program, /*seed=*/1000, /*budget_seconds=*/0.0);
  return std::max(outcome.seconds, 0.02);
}

/// The Fig. 7 program families: each micro-benchmark averaged with its
/// synthetic variants ("The 3D PRL, LDC and RDC programs have lower BF
/// recall than corresponding 2D programs", §V-D1).
inline std::vector<std::pair<std::string, std::vector<std::string>>>
MicroBenchmarkFamilies() {
  return {{"CS", {"CS", "CS1", "CS2", "CS3", "CS5"}},
          {"PRL", {"PRL", "PRL3D"}},
          {"LDC", {"LDC", "LDC3D"}},
          {"RDC", {"RDC", "RDC3D"}}};
}

}  // namespace kondo::bench

#endif  // KONDO_BENCH_BENCH_UTIL_H_
