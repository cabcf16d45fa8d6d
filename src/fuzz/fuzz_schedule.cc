#include "fuzz/fuzz_schedule.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace kondo {
namespace {

/// Speculation window per worker: how many queued candidates are evaluated
/// ahead of consumption. Wasted work is bounded by one window when a
/// stagnation stop fires mid-batch.
constexpr int64_t kBatchOvercommit = 2;

// `fresh` is merged into `discovered` once it holds more than 1/16 of
// discovered's runs: each merge then copies I_Θ for at least |I_Θ|/16 new
// runs, while merging tests into `fresh` stays a small copy.
constexpr size_t kFreshRunsPerMerge = 16;

}  // namespace

FuzzSchedule::FuzzSchedule(ParamSpace space, Shape shape, FuzzConfig config,
                           uint64_t rng_seed)
    : space_(std::move(space)),
      shape_(std::move(shape)),
      config_(config),
      rng_(rng_seed),
      campaign_seed_(rng_seed),
      epsilon_(config.epsilon0) {}

void FuzzSchedule::RandomRestart() {
  queue_.clear();
  ++round_;
  round_index_ = 0;
  for (int i = 0; i < config_.init_seeds; ++i) {
    Enqueue(space_.Sample(rng_));
  }
}

void FuzzSchedule::Enqueue(ParamValue v) {
  const std::string key = space_.QuantizeKey(v);
  if (!enqueued_or_evaluated_.insert(key).second) {
    return;
  }
  TestCandidate candidate;
  candidate.round = round_;
  candidate.index = round_index_++;
  candidate.rng_seed = DeriveTestSeed(campaign_seed_, candidate.round,
                                      candidate.index);
  candidate.seq = next_seq_++;
  candidate.value = std::move(v);
  queue_.push_back(std::move(candidate));
}

FuzzResult FuzzSchedule::Run(const DebloatTestFn& test,
                             const FuzzObserver& observer) {
  CampaignExecutor executor(1);
  return Run(
      executor,
      [&test](const TestCandidate& candidate) {
        CandidateResult result;
        result.accessed = test(candidate.value);
        return result;
      },
      /*collector=*/nullptr, observer);
}

FuzzResult FuzzSchedule::Run(CampaignExecutor& executor,
                             const CandidateTestFn& test,
                             ResultCollector* collector,
                             const FuzzObserver& observer) {
  FuzzResult result;
  result.discovered = IndexSet(shape_);
  // I_Θ = discovered ∪ fresh. The ids a test finds that no earlier test did
  // collect in the small, disjoint `fresh` set and merge into `discovered`
  // in bulk: merging into I_Θ costs O(its runs), and a campaign whose I_v
  // are scattered (ARD's one-t slices) would otherwise pay that per test.
  // Finding a test's new ids is a galloping Difference against I_Θ's runs.
  IndexSet fresh(shape_);
  Stopwatch stopwatch;

  // jobs=1 keeps the window at 1: zero speculation, exactly the serial loop.
  const int64_t max_batch =
      executor.jobs() <= 1
          ? 1
          : static_cast<int64_t>(executor.jobs()) * kBatchOvercommit;

  int itr = 0;
  int new_itr = 0;  // Iterations since the last newly discovered offset.
  bool done = false;
  while (!done) {
    // ---- serial: stopping criteria for the upcoming iteration. ----
    if (itr >= config_.max_iter) {
      break;
    }
    if (new_itr >= config_.stop_iter) {
      result.stats.stopped_by_stagnation = true;
      break;
    }
    if (config_.max_seconds > 0.0 &&
        stopwatch.ElapsedSeconds() >= config_.max_seconds) {
      result.stats.stopped_by_budget = true;
      break;
    }
    if (config_.max_evals > 0 &&
        result.stats.evaluations >= config_.max_evals) {
      result.stats.stopped_by_eval_budget = true;
      break;
    }

    const int next_itr = itr + 1;
    if (queue_.empty() ||
        (config_.restart > 0 && next_itr % config_.restart == 0)) {
      RandomRestart();
      ++result.stats.restarts;
      if (queue_.empty()) {
        // Every sample was a duplicate; extremely small Θ. Give up.
        break;
      }
    }

    // ---- serial: carve the evaluation batch. The batch is the queue
    // prefix the serial loop is guaranteed to reach: it never crosses the
    // next restart boundary (where the queue would be cleared) and never
    // exceeds the remaining iteration budget, so membership is independent
    // of the jobs setting. ----
    int64_t batch_size = std::min<int64_t>(
        static_cast<int64_t>(queue_.size()), max_batch);
    batch_size = std::min<int64_t>(batch_size, config_.max_iter - itr);
    if (config_.max_evals > 0) {
      // Evaluations consumed so far is a serial counter, so this clamp is
      // identical at every jobs setting; it only trims speculative waste.
      batch_size = std::min<int64_t>(
          batch_size, config_.max_evals - result.stats.evaluations);
    }
    if (config_.restart > 0) {
      const int64_t boundary =
          (static_cast<int64_t>(next_itr) / config_.restart + 1) *
          config_.restart;
      batch_size = std::min(batch_size, boundary - next_itr);
    }
    std::vector<TestCandidate> batch;
    batch.reserve(static_cast<size_t>(batch_size));
    for (int64_t i = 0; i < batch_size; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }

    // ---- parallel: the debloat tests. Tests are pure functions of their
    // candidate (identity-derived RNG streams, no shared campaign state),
    // so evaluation order cannot leak into the results. Transient failures
    // are retried in place on the owning worker. ----
    const RetryPolicy retry{config_.test_max_attempts,
                            config_.test_backoff_micros};
    std::vector<CandidateResult> outcomes =
        executor.RunBatch(batch, test, retry);

    // ---- serial: consume outcomes in candidate order. A stopping
    // criterion firing mid-batch discards the speculative tail, exactly as
    // the serial loop would never have executed it. ----
    for (size_t k = 0; k < batch.size(); ++k) {
      if (new_itr >= config_.stop_iter) {
        result.stats.stopped_by_stagnation = true;
        done = true;
        break;
      }
      if (config_.max_seconds > 0.0 &&
          stopwatch.ElapsedSeconds() >= config_.max_seconds) {
        result.stats.stopped_by_budget = true;
        done = true;
        break;
      }
      if (config_.max_evals > 0 &&
          result.stats.evaluations >= config_.max_evals) {
        result.stats.stopped_by_eval_budget = true;
        done = true;
        break;
      }
      ++itr;

      const TestCandidate& candidate = batch[k];
      const CandidateResult& outcome = outcomes[k];
      result.stats.retries += outcome.attempts - 1;

      if (!outcome.status.ok()) {
        // Persistently failing parameter point: quarantine it. The
        // decision depends only on the candidate's outcome (consumed here
        // in candidate order), so it is identical at every jobs setting.
        ++result.stats.quarantined;
        result.stats.quarantined_points.push_back(candidate.value);
        KONDO_LOG(Warning) << "quarantined parameter point after "
                           << outcome.attempts
                           << " attempts: " << outcome.status;
        ++new_itr;  // No lineage from this test: stagnation advances.
        if (config_.decay_iter > 0 && itr % config_.decay_iter == 0) {
          epsilon_ *= config_.decay;
        }
        continue;
      }

      if (collector != nullptr) {
        const Status status = collector->Collect(outcome);
        if (!status.ok()) {
          // Infrastructure failure (the lineage store could not be
          // written): abort the campaign gracefully so the scheduler can
          // report it and a resume can re-run the shard.
          result.status = Status(
              status.code(),
              StrCat("campaign result collection failed: ", status.message()));
          done = true;
          break;
        }
      }

      ++result.stats.evaluations;
      const bool useful = !outcome.accessed.empty();
      if (useful) {
        ++result.stats.useful_evaluations;
      }

      const size_t before = fresh.size();
      fresh.Union(outcome.accessed.Difference(result.discovered));
      const bool grew = fresh.size() > before;
      if (fresh.num_runs() * kFreshRunsPerMerge >
          result.discovered.num_runs()) {
        result.discovered.Union(fresh);
        fresh = IndexSet(shape_);
      }
      if (grew) {
        new_itr = 0;
      } else {
        ++new_itr;
      }

      if (useful) {
        useful_clusters_.Add(candidate.value, config_.diameter);
      } else {
        non_useful_clusters_.Add(candidate.value, config_.diameter);
      }
      result.seeds.push_back(Seed{candidate.value, useful});
      if (observer != nullptr) {
        observer(itr, candidate.value, useful,
                 result.discovered.size() + fresh.size());
      }

      for (ParamValue& mutated : Mutate(candidate.value, useful)) {
        Enqueue(std::move(mutated));
      }

      if (config_.decay_iter > 0 && itr % config_.decay_iter == 0) {
        epsilon_ *= config_.decay;
      }
    }
  }

  result.discovered.Union(fresh);
  result.stats.iterations = itr;
  result.stats.final_epsilon = epsilon_;
  result.stats.elapsed_seconds = stopwatch.ElapsedSeconds();
  return result;
}

std::vector<ParamValue> FuzzSchedule::Mutate(const ParamValue& v,
                                             bool useful) {
  const DistRange& dist = useful ? config_.u_dist : config_.n_dist;
  const int reps = useful ? config_.u_reps : config_.n_reps;

  // With probability ε mutate uniformly (plain exploit/explore); otherwise
  // use the boundary-based schedule: a useful seed moves toward the nearest
  // non-useful cluster and vice versa, homing in on the subset boundary.
  const bool use_uniform = rng_.Bernoulli(epsilon_);
  const ClusterStore& opposite =
      useful ? non_useful_clusters_ : useful_clusters_;

  std::vector<ParamValue> candidates;
  candidates.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    if (use_uniform || opposite.empty()) {
      candidates.push_back(UniformMutation(v, dist));
      continue;
    }
    const int nearest = opposite.Nearest(v);
    candidates.push_back(
        GreedyMutation(v, opposite.clusters()[static_cast<size_t>(nearest)].center,
                       dist));
  }
  return candidates;
}

ParamValue FuzzSchedule::UniformMutation(const ParamValue& v,
                                         const DistRange& dist) {
  ParamValue candidate = v;
  for (double& coord : candidate) {
    const double magnitude = rng_.UniformDouble(dist.lo, dist.hi);
    const double sign = rng_.Bernoulli(0.5) ? 1.0 : -1.0;
    coord += sign * magnitude;
  }
  return space_.Clamp(std::move(candidate));
}

ParamValue FuzzSchedule::GreedyMutation(const ParamValue& v,
                                        const ParamValue& target,
                                        const DistRange& dist) {
  const double distance = ParamDistance(v, target);
  // Scale the frame by the distance to the opposite-type cluster: far from
  // the boundary we take bigger steps, close to it we densify (Section
  // IV-A2). The cluster diameter serves as the reference length.
  const double scale =
      std::clamp(distance / std::max(config_.diameter, 1e-9), 0.25, 4.0);
  double step = rng_.UniformDouble(dist.lo, dist.hi) * scale;
  // Never overshoot past the target centre; the boundary lies between.
  step = std::min(step, distance);

  ParamValue candidate = v;
  if (distance > 1e-12) {
    for (size_t i = 0; i < candidate.size(); ++i) {
      candidate[i] += (target[i] - v[i]) / distance * step;
    }
  }
  // Small orthogonal jitter diversifies the approach path.
  for (double& coord : candidate) {
    coord += rng_.UniformDouble(-dist.lo, dist.lo) * 0.5;
  }
  return space_.Clamp(std::move(candidate));
}

}  // namespace kondo
