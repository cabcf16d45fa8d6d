#include "core/kondo.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "exec/thread_pool.h"

namespace kondo {

KondoResult KondoPipeline::Run(const Program& program) const {
  return RunWithCandidateTest(MakeCandidateTest(program),
                              program.param_space(), program.data_shape());
}

KondoResult KondoPipeline::RunWithTest(const DebloatTestFn& test,
                                       const ParamSpace& space,
                                       const Shape& shape) const {
  return RunWithCandidateTest(
      [&test](const TestCandidate& candidate) {
        CandidateResult result;
        result.accessed = test(candidate.value);
        return result;
      },
      space, shape);
}

KondoResult KondoPipeline::RunWithCandidateTest(
    const CandidateTestFn& test, const ParamSpace& space, const Shape& shape,
    ResultCollector* collector) const {
  Stopwatch stopwatch;
  CampaignExecutor executor(ClampJobs(config_.jobs));
  FuzzSchedule schedule(space, shape, config_.fuzz, config_.rng_seed);
  FuzzResult fuzz = schedule.Run(executor, test, collector);
  const double fuzz_seconds = stopwatch.ElapsedSeconds();

  stopwatch.Reset();
  Carver carver(config_.carve);
  CarveStats carve_stats;
  CarvedSubset carved = carver.Carve(fuzz.discovered, executor, &carve_stats);
  const double carve_seconds = stopwatch.ElapsedSeconds();

  stopwatch.Reset();
  IndexSet approx = Carver::Rasterize(carved, executor);
  const double rasterize_seconds = stopwatch.ElapsedSeconds();

  return KondoResult{std::move(fuzz),    carve_stats,
                     std::move(carved),  std::move(approx),
                     fuzz_seconds,       carve_seconds,
                     rasterize_seconds};
}

DebloatedArray PackageDebloated(const DataArray& array,
                                const IndexSet& approx) {
  return DebloatedArray::FromDataArray(array, approx);
}

KondoConfig ScaledKondoConfig(const Shape& shape) {
  int64_t max_extent = 1;
  for (int d = 0; d < shape.rank(); ++d) {
    max_extent = std::max(max_extent, shape.dim(d));
  }
  const double scale = std::max(1.0, static_cast<double>(max_extent) / 128.0);
  KondoConfig config;
  config.fuzz.u_dist = {config.fuzz.u_dist.lo * scale,
                        config.fuzz.u_dist.hi * scale};
  config.fuzz.n_dist = {config.fuzz.n_dist.lo * scale,
                        config.fuzz.n_dist.hi * scale};
  config.fuzz.diameter *= scale;
  config.carve.cell_size =
      std::max<int64_t>(config.carve.cell_size,
                        static_cast<int64_t>(config.carve.cell_size * scale));
  config.carve.center_d_thresh *= scale;
  config.carve.boundary_d_thresh *= scale;
  return config;
}

}  // namespace kondo
