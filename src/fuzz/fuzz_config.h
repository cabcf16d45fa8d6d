#ifndef KONDO_FUZZ_FUZZ_CONFIG_H_
#define KONDO_FUZZ_FUZZ_CONFIG_H_

#include <cstdint>

namespace kondo {

/// An inclusive [lo, hi] magnitude interval for mutation frames.
struct DistRange {
  double lo = 0.0;
  double hi = 0.0;

  template <class V>
  void Fields(V& v) {
    v(lo, hi);
  }
};

/// Fuzz-schedule configuration (the fuzzing entries of Fig. 5), with the
/// default values used in the paper's evaluation (Section V-B).
struct FuzzConfig {
  /// `stop_iter`: terminate after this many iterations without a new offset.
  int stop_iter = 500;

  /// `max_iter`: maximum schedule iterations (each evaluates one seed).
  int max_iter = 2000;

  /// `diameter`: cluster diameter for ADD_TO_CLUSTER.
  double diameter = 20.0;

  /// `u_reps` / `n_reps`: mutations produced per useful / non-useful seed.
  int u_reps = 8;
  int n_reps = 5;

  /// `u_dist` / `n_dist`: per-dimension frame magnitude intervals for
  /// useful / non-useful seeds.
  DistRange u_dist{5.0, 15.0};
  DistRange n_dist{30.0, 50.0};

  /// `restart`: iterations between random restarts of the seed queue.
  int restart = 300;

  /// `decay_iter` / `decay`: ε is multiplied by `decay` every `decay_iter`
  /// iterations; with probability ε the plain exploit/explore mutation is
  /// used, otherwise the boundary-based one.
  int decay_iter = 200;
  double decay = 0.97;

  /// Initial ε. Setting decay to 1.0 (and ε to 1.0) disables boundary-based
  /// mutations entirely — the plain exploit-and-explore schedule of
  /// Section IV-A1, used as the contrast in Fig. 4.
  double epsilon0 = 1.0;

  /// Number of uniformly sampled seeds injected at start and on restarts
  /// (the `n` of Figure 3).
  int init_seeds = 10;

  /// Optional wall-clock budget in seconds (0 = unlimited). Section V-C
  /// gives every tool the same per-program budget.
  double max_seconds = 0.0;

  /// Optional evaluation-count budget (0 = unlimited): stop once this many
  /// debloat tests have been *consumed*. Unlike `max_seconds`, the check
  /// runs at serial candidate-consumption time, so a budgeted campaign is
  /// bit-identical at every `--jobs` setting.
  int64_t max_evals = 0;

  /// Total attempts per debloat test before its parameter point is
  /// quarantined (1 = fail fast). Retries run in place on the owning
  /// worker (see RetryPolicy), so schedules stay jobs-invariant.
  int test_max_attempts = 1;

  /// Base busy-wait backoff between attempts, doubling per retry.
  int64_t test_backoff_micros = 0;

  /// Every field, in declaration order: the fleet hello ships the whole
  /// config through this list (serve/kpc_codec.h).
  template <class V>
  void Fields(V& v) {
    v(stop_iter, max_iter, diameter, u_reps, n_reps, u_dist, n_dist, restart,
      decay_iter, decay, epsilon0, init_seeds, max_seconds, max_evals,
      test_max_attempts, test_backoff_micros);
  }

  /// Returns a config running the plain exploit-and-explore schedule.
  static FuzzConfig PlainExploitExplore() {
    FuzzConfig config;
    config.epsilon0 = 1.0;
    config.decay = 1.0;
    config.restart = 1 << 30;  // No random restarts in the plain schedule.
    return config;
  }
};

}  // namespace kondo

#endif  // KONDO_FUZZ_FUZZ_CONFIG_H_
