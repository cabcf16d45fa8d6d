#include "core/multi_kondo.h"

#include <utility>

#include "common/logging.h"
#include "exec/thread_pool.h"
#include "shard/shard_scheduler.h"

namespace kondo {

MultiKondoResult RunMultiFileKondo(const MultiFileProgram& program,
                                   const KondoConfig& config) {
  if (config.shards > 1) {
    // Sharded route: per-shard campaigns over a shared pool, folded by the
    // merge stage into the same result the unsharded body below computes
    // (bit-identical — tests/shard_test.cc pins this).
    ShardOptions options;
    options.shards = config.shards;
    StatusOr<ShardedRunResult> sharded =
        RunShardedCampaign(program, config, options);
    KONDO_CHECK(sharded.ok()) << "sharded campaign failed: "
                              << sharded.status();
    KONDO_CHECK(sharded->complete);
    MultiKondoResult result;
    result.fuzz_stats = sharded->merged.fuzz_stats;
    result.per_file_discovered = std::move(sharded->merged.per_file_discovered);
    result.per_file_approx = std::move(sharded->merged.per_file_approx);
    result.per_file_carve_stats =
        std::move(sharded->merged.per_file_carve_stats);
    return result;
  }

  const int files = program.num_files();

  // The schedule tracks discovery over a synthetic combined index space:
  // file f's element `linear` maps to global id (offset_f + linear). This
  // preserves the stopping criteria ("no new offset in any file") without
  // teaching the schedule about files.
  std::vector<int64_t> offsets(static_cast<size_t>(files) + 1, 0);
  std::vector<Shape> file_shapes;
  file_shapes.reserve(static_cast<size_t>(files));
  for (int f = 0; f < files; ++f) {
    offsets[static_cast<size_t>(f) + 1] =
        offsets[static_cast<size_t>(f)] +
        program.file_shape(f).NumElements();
    file_shapes.push_back(program.file_shape(f));
  }
  const Shape combined_shape({offsets.back()});

  // Each test returns its own per-file access sets (no shared side channel
  // — workers may run tests concurrently and speculatively); the
  // ResultCollector merges exactly the consumed tests, in candidate order,
  // so the per-file unions match the serial campaign bit-for-bit.
  const CandidateTestFn test = [&program, &offsets, &combined_shape,
                                &file_shapes](const TestCandidate& candidate) {
    IndexSet::Builder accessed(combined_shape);
    std::vector<IndexSet::Builder> per_file;
    per_file.reserve(file_shapes.size());
    for (const Shape& shape : file_shapes) {
      per_file.emplace_back(shape);
    }
    program.Execute(candidate.value, [&](int file, const Index& index) {
      const Shape& shape = file_shapes[static_cast<size_t>(file)];
      if (!shape.Contains(index)) {
        return;
      }
      const int64_t linear = shape.Linearize(index);
      per_file[static_cast<size_t>(file)].InsertLinear(linear);
      accessed.InsertLinear(offsets[static_cast<size_t>(file)] + linear);
    });
    CandidateResult result;
    result.accessed = accessed.Build();
    result.per_file.reserve(per_file.size());
    for (IndexSet::Builder& builder : per_file) {
      result.per_file.push_back(builder.Build());
    }
    return result;
  };

  ResultCollector collector(combined_shape);
  collector.EnablePerFile(file_shapes);
  CampaignExecutor executor(ClampJobs(config.jobs));
  FuzzSchedule schedule(program.param_space(), combined_shape, config.fuzz,
                        config.rng_seed);
  const FuzzResult fuzz = schedule.Run(executor, test, &collector);

  MultiKondoResult result;
  result.fuzz_stats = fuzz.stats;
  result.per_file_discovered = collector.TakePerFile();
  Carver carver(config.carve);
  for (int f = 0; f < files; ++f) {
    CarveStats stats;
    const CarvedSubset carved = carver.Carve(
        result.per_file_discovered[static_cast<size_t>(f)], executor, &stats);
    result.per_file_approx.push_back(Carver::Rasterize(carved, executor));
    result.per_file_carve_stats.push_back(stats);
  }
  return result;
}

}  // namespace kondo
