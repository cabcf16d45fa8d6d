#include "core/hybrid.h"

#include <utility>

#include "exec/campaign_executor.h"

namespace kondo {

HybridOutcome RunHybridKondoAfl(const Program& program,
                                const KondoConfig& kondo_config,
                                const AflConfig& afl_config) {
  HybridOutcome outcome;

  // The two discovery stages are independent until the merge, and the paper
  // frames the AFL consult as running "in parallel" with Kondo (§VI) — so
  // with jobs > 1 they run concurrently. Kondo keeps its own inner executor
  // for within-campaign parallelism; both programs only call the const,
  // stateless Execute path, so concurrent stages are safe.
  AflResult afl;
  CampaignExecutor executor(kondo_config.jobs > 1 ? 2 : 1);
  executor.ParallelFor(2, [&](int64_t stage) {
    if (stage == 0) {
      outcome.kondo = KondoPipeline(kondo_config).Run(program);
    } else {
      AflFuzzer fuzzer(program, afl_config);
      afl = fuzzer.Run();
    }
  });
  outcome.afl = std::move(afl);

  const IndexSet& discovered = outcome.kondo.fuzz.discovered;
  outcome.afl.coverage.ForEach([&outcome, &discovered](const Index& index) {
    if (!discovered.Contains(index)) {
      ++outcome.afl_new_offsets;
      if (!outcome.kondo.carved.Contains(index)) {
        ++outcome.repaired_offsets;
      }
    }
  });
  IndexSet combined = discovered;
  combined.Union(outcome.afl.coverage);

  Carver carver(kondo_config.carve);
  outcome.combined_approx = carver.Carve(combined).Rasterize();
  return outcome;
}

}  // namespace kondo
