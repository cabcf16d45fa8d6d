#include "core/multi_kondo.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "shard/shard_scheduler.h"

namespace kondo {

MergedCampaign RunMultiFileKondo(const MultiFileProgram& program,
                                 const KondoConfig& config) {
  ShardOptions options;
  options.shards = std::max(1, config.shards);
  StatusOr<ShardedRunResult> run =
      RunShardedCampaign(program, config, options);
  KONDO_CHECK(run.ok()) << "multi-file campaign failed: " << run.status();
  return std::move(run->merged);
}

}  // namespace kondo
