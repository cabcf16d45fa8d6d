#include "core/runtime.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace kondo {

StatusOr<double> DebloatRuntime::Read(const Index& index) {
  ++stats_.reads;
  StatusOr<double> value = package_->ReadElement(index);
  if (value.ok()) {
    ++stats_.hits;
    return value;
  }
  if (value.status().code() == StatusCode::kDataMissing &&
      remote_ != nullptr) {
    // Missing locally: consult the fetch cache, then the remote source.
    const int64_t linear = package_->shape().Linearize(index);
    if (auto it = fetched_cache_.find(linear); it != fetched_cache_.end()) {
      ++stats_.hits;
      return it->second;
    }
    value = FetchRemote(index);
    if (value.ok()) {
      fetched_cache_.emplace(linear, *value);
      return value;
    }
  }
  ++stats_.misses;
  missing_log_.push_back(index);
  return value;
}

StatusOr<double> DebloatRuntime::FetchRemote(const Index& index) {
  if (stats_.degraded) {
    return DataMissingError(
        StrCat("data missing (remote fetching degraded after ",
               consecutive_failures_, " consecutive fetch failures)"));
  }
  const int max_attempts = std::max(1, policy_.max_attempts);
  StatusOr<double> fetched = remote_->Fetch(index);
  int attempt = 1;
  while (!fetched.ok() && attempt < max_attempts) {
    if (policy_.backoff_micros > 0) {
      BusyWaitMicros(policy_.backoff_micros << (attempt - 1));
    }
    ++attempt;
    ++stats_.fetch_retries;
    fetched = remote_->Fetch(index);
  }
  if (!fetched.ok()) {
    ++stats_.fetch_failures;
    ++consecutive_failures_;
    if (policy_.degrade_after > 0 &&
        consecutive_failures_ >= policy_.degrade_after) {
      stats_.degraded = true;
    }
    // Surface the paper's data-missing error, not the transport error: to
    // the program, an unfetchable element is indistinguishable from a
    // debloated one.
    return DataMissingError(StrCat("data missing and remote fetch failed (",
                                   attempt, " attempts): ",
                                   fetched.status().message()));
  }
  consecutive_failures_ = 0;
  ++stats_.remote_fetches;
  stats_.bytes_fetched = remote_->bytes_fetched();
  return fetched;
}

Status DebloatRuntime::ReplayRun(const Program& program,
                                 const ParamValue& v) {
  Status first_error = OkStatus();
  program.Execute(v, [this, &first_error](const Index& index) {
    StatusOr<double> value = Read(index);
    if (!value.ok() && first_error.ok()) {
      first_error = value.status();
    }
  });
  return first_error;
}

void DebloatRuntime::ResetStats() {
  stats_ = RuntimeStats{};
  missing_log_.clear();
}

}  // namespace kondo
