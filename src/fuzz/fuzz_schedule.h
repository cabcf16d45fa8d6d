#ifndef KONDO_FUZZ_FUZZ_SCHEDULE_H_
#define KONDO_FUZZ_FUZZ_SCHEDULE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "array/index_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/campaign_executor.h"
#include "exec/result_collector.h"
#include "exec/test_candidate.h"
#include "fuzz/cluster.h"
#include "fuzz/fuzz_config.h"
#include "fuzz/param_space.h"

namespace kondo {

/// The debloat test of Definition 2: an audited execution of the application
/// for parameter value `v` that returns the accessed index subset `I_v`
/// without the caller needing the data contents.
using DebloatTestFn = std::function<IndexSet(const ParamValue&)>;

/// An evaluated seed: the parameter value and whether its debloat test found
/// any accessed index ("useful" in the paper's terminology).
struct Seed {
  ParamValue value;
  bool useful = false;
};

/// Counters reported by a fuzz campaign.
struct FuzzStats {
  int iterations = 0;        // Schedule iterations executed.
  int evaluations = 0;       // Debloat tests actually run (deduplicated).
  int useful_evaluations = 0;
  int restarts = 0;
  double final_epsilon = 1.0;
  double elapsed_seconds = 0.0;
  bool stopped_by_stagnation = false;   // stop_iter triggered.
  bool stopped_by_budget = false;       // max_seconds (wall-clock) triggered.
  bool stopped_by_eval_budget = false;  // max_evals triggered (jobs-invariant).

  /// Extra debloat-test attempts consumed by the retry policy
  /// (FuzzConfig::test_max_attempts).
  int retries = 0;

  /// Candidates whose debloat test failed every attempt. Their parameter
  /// points are listed in `quarantined_points` so precision/recall
  /// reporting can state what coverage was lost; they contribute no
  /// lineage and no seeds.
  int quarantined = 0;
  std::vector<ParamValue> quarantined_points;
};

/// Result of a fuzz campaign: `IS = ∪ I_v` over the evaluated seeds, plus
/// the seeds themselves (the Fig. 4 scatter) and run statistics.
struct FuzzResult {
  IndexSet discovered;
  std::vector<Seed> seeds;
  FuzzStats stats;

  /// Non-OK when the campaign aborted early on an infrastructure failure
  /// (e.g. the lineage persister could not write). Test failures never set
  /// this — they are retried and quarantined instead.
  Status status;
};

/// Optional per-iteration observer: (iteration, seed evaluated, usefulness,
/// total discovered offsets so far). Used for discovery-trajectory analyses
/// and progress reporting; ignored when null.
using FuzzObserver =
    std::function<void(int itr, const ParamValue& v, bool useful,
                       size_t discovered)>;

/// The fuzz schedule of Algorithm 1. Starts from uniformly sampled seeds,
/// evaluates the debloat test per seed, clusters useful and non-useful
/// values, and mutates each seed either uniformly within a frame (plain
/// exploit/explore) or greedily toward the nearest opposite-type cluster
/// centre (boundary-based), transitioning between the two with an ε-greedy
/// policy. Random restarts prevent localisation.
///
/// The schedule is split into two halves:
///  * candidate *generation* — sampling, deduplication, clustering,
///    mutation, ε decay — is serial and cheap, driven by the single
///    campaign RNG stream;
///  * candidate *execution* — the debloat tests — is embarrassingly
///    parallel within a round and is fanned out through a CampaignExecutor.
///
/// Parallel runs are bit-identical to serial ones: the executor evaluates
/// the queue prefix the serial loop is guaranteed to reach (batches never
/// straddle a restart boundary), results are consumed in candidate order,
/// and per-test randomness comes from `TestCandidate::rng_seed`, a pure
/// function of (campaign seed, restart round, candidate index). Only
/// `FuzzStats::elapsed_seconds` — and, when a wall-clock `max_seconds`
/// budget is set, the point at which it fires — depends on `jobs`.
class FuzzSchedule {
 public:
  /// `shape` is the data array shape (used to size the discovered IndexSet);
  /// `rng_seed` fixes the stochastic stream.
  FuzzSchedule(ParamSpace space, Shape shape, FuzzConfig config,
               uint64_t rng_seed);

  /// Runs the campaign serially to completion under the configured stopping
  /// criteria (a jobs=1 convenience wrapper over the executor overload).
  FuzzResult Run(const DebloatTestFn& test,
                 const FuzzObserver& observer = nullptr);

  /// Runs the campaign with debloat tests fanned out across `executor`'s
  /// workers. When `collector` is non-null, every consumed test's outcome is
  /// funnelled through it — in candidate order, from this (single) thread —
  /// which is how audited campaigns keep KEL2 lineage identical to the
  /// serial path. Persist failures abort the campaign (as they do in
  /// RunAudited).
  FuzzResult Run(CampaignExecutor& executor, const CandidateTestFn& test,
                 ResultCollector* collector = nullptr,
                 const FuzzObserver& observer = nullptr);

 private:
  /// Enqueues `config_.init_seeds` fresh uniform samples, clearing the queue
  /// (Algorithm 1's RANDOM_RESTART). Bumps the restart round.
  void RandomRestart();

  /// Deduplicates and enqueues `v`, stamping the candidate's deterministic
  /// identity (round, index, rng_seed, seq).
  void Enqueue(ParamValue v);

  /// MUTATE(v, C): returns up to `reps` candidate values.
  std::vector<ParamValue> Mutate(const ParamValue& v, bool useful);

  /// Plain exploit/explore mutation: each coordinate moves by a magnitude
  /// drawn from `dist` with random sign.
  ParamValue UniformMutation(const ParamValue& v, const DistRange& dist);

  /// Boundary-based mutation: step toward `target` (the nearest
  /// opposite-type cluster centre), frame scaled by the distance to it.
  ParamValue GreedyMutation(const ParamValue& v, const ParamValue& target,
                            const DistRange& dist);

  ParamSpace space_;
  Shape shape_;
  FuzzConfig config_;
  Rng rng_;
  uint64_t campaign_seed_;

  std::deque<TestCandidate> queue_;
  std::unordered_set<std::string> enqueued_or_evaluated_;
  ClusterStore useful_clusters_;
  ClusterStore non_useful_clusters_;
  double epsilon_ = 1.0;
  int round_ = 0;        // Restart epoch (bumped by RandomRestart).
  int round_index_ = 0;  // Candidates enqueued in the current epoch.
  int64_t next_seq_ = 0;
};

}  // namespace kondo

#endif  // KONDO_FUZZ_FUZZ_SCHEDULE_H_
