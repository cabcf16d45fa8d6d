#ifndef KONDO_CORE_MULTI_KONDO_H_
#define KONDO_CORE_MULTI_KONDO_H_

#include "core/kondo.h"
#include "shard/merge_stage.h"
#include "workloads/multi_file_program.h"

namespace kondo {

/// Runs Kondo on a multi-file application (footnote 1 / Section VI): the
/// fuzz schedule executes each seed once — a seed is *useful* when it
/// accesses any of the files, and progress tracking spans all files — and
/// the Carver then runs independently per file, since each self-describing
/// file is its own index space.
///
/// This is the in-memory shard engine (RunShardedCampaign) with
/// `max(1, config.shards)` shards; the result is bit-identical at every
/// shard and jobs setting.
MergedCampaign RunMultiFileKondo(const MultiFileProgram& program,
                                 const KondoConfig& config);

}  // namespace kondo

#endif  // KONDO_CORE_MULTI_KONDO_H_
