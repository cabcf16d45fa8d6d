#include "baselines/brute_force.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace kondo {
namespace {

/// Decodes valuation number `ordinal` (mixed-radix over the integer grid).
ParamValue DecodeValuation(const ParamSpace& space, int64_t ordinal) {
  const int m = space.num_params();
  ParamValue v(static_cast<size_t>(m));
  for (int i = m - 1; i >= 0; --i) {
    const int64_t lo = static_cast<int64_t>(std::ceil(space.range(i).lo));
    const int64_t hi = static_cast<int64_t>(std::floor(space.range(i).hi));
    const int64_t cardinality = hi - lo + 1;
    v[static_cast<size_t>(i)] = static_cast<double>(lo + ordinal % cardinality);
    ordinal /= cardinality;
  }
  return v;
}

}  // namespace

BruteForceResult RunBruteForce(const Program& program,
                               const BruteForceConfig& config) {
  const ParamSpace& space = program.param_space();
  const double valuations_d = space.NumValuations();
  KONDO_CHECK(std::isfinite(valuations_d))
      << "BF requires an all-integer parameter space";
  const int64_t valuations = static_cast<int64_t>(valuations_d);

  BruteForceResult result;
  result.discovered = IndexSet(program.data_shape());
  Stopwatch stopwatch;

  // Shuffled order: a random permutation of ordinals (materialised; the
  // evaluated spaces are at most a few hundred thousand valuations).
  std::vector<int64_t> order;
  if (config.shuffled) {
    order.resize(static_cast<size_t>(valuations));
    for (int64_t i = 0; i < valuations; ++i) {
      order[static_cast<size_t>(i)] = i;
    }
    Rng rng(config.rng_seed);
    rng.Shuffle(order);
  }

  for (int64_t k = 0; k < valuations; ++k) {
    if (config.max_runs > 0 && result.runs >= config.max_runs) {
      break;
    }
    // Check the wall clock every few runs to keep overhead negligible.
    if (config.max_seconds > 0.0 && (k & 0xF) == 0 &&
        stopwatch.ElapsedSeconds() >= config.max_seconds) {
      break;
    }
    const int64_t ordinal =
        config.shuffled ? order[static_cast<size_t>(k)] : k;
    const ParamValue v = DecodeValuation(space, ordinal);
    BusyWaitMicros(config.exec_overhead_micros);
    result.discovered.Union(program.AccessSet(v));
    ++result.runs;
  }

  result.exhausted = result.runs == valuations;
  result.elapsed_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace kondo
