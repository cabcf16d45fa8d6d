#ifndef KONDO_FUZZ_CAMPAIGN_STATE_H_
#define KONDO_FUZZ_CAMPAIGN_STATE_H_

#include <string>

#include "common/env.h"
#include "common/status.h"
#include "common/statusor.h"
#include "fuzz/fuzz_schedule.h"

namespace kondo {

/// A persisted fuzz campaign: the evaluated seeds with their usefulness
/// labels and the discovered index subset. Kondo's architecture (Fig. 3)
/// feeds "both the n parameter values and the set of indices" into the
/// Fuzzer; persisting them lets a later session extend a campaign (more
/// iterations, a different carver configuration, the AFL top-up of §VI)
/// without re-running the original debloat tests.
struct CampaignState {
  Shape shape;                 // Data array shape of the campaign.
  std::vector<Seed> seeds;     // Evaluated parameter values + labels.
  IndexSet discovered;         // Union of the audited index subsets.
};

/// Serialises a campaign to a text file (one header line, one line per
/// seed, one line per discovered linear id). Text keeps the state
/// greppable and diffable; campaigns are small (thousands of entries).
/// The file is committed atomically (tmp + fsync + rename) through `env`
/// (nullptr selects Env::Default()), so a crash mid-save leaves the
/// previous state in place.
Status SaveCampaignState(const std::string& path, const CampaignState& state,
                         Env* env = nullptr);

/// Parses a file written by SaveCampaignState, read through `env`
/// (nullptr selects Env::Default()).
StatusOr<CampaignState> LoadCampaignState(const std::string& path,
                                          Env* env = nullptr);

/// Builds the persistable state from a finished fuzz run.
CampaignState MakeCampaignState(const Shape& shape, const FuzzResult& result);

/// Merges `extra` into `base`: seed lists concatenate (duplicates kept —
/// they witness schedule behaviour) and discovered sets union. Shapes must
/// match.
void MergeCampaignState(CampaignState* base, const CampaignState& extra);

}  // namespace kondo

#endif  // KONDO_FUZZ_CAMPAIGN_STATE_H_
