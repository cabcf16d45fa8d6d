#include "workloads/program.h"

#include <cmath>
#include <vector>

#include "common/logging.h"

namespace kondo {

IndexSet Program::AccessSet(const ParamValue& v) const {
  IndexSet::Builder result(data_shape());
  Execute(v, [&result](const Index& index) { result.Insert(index); });
  return result.Build();
}

Status Program::ExecuteOnFile(const ParamValue& v, TracedFile& file) const {
  if (!(file.shape() == data_shape())) {
    return InvalidArgumentError("data file shape does not match program");
  }
  Status status = OkStatus();
  Execute(v, [&file, &status](const Index& index) {
    if (!status.ok()) {
      return;
    }
    StatusOr<double> value = file.ReadElement(index);
    if (!value.ok()) {
      status = value.status();
    }
  });
  return status;
}

const IndexSet& Program::GroundTruth() const {
  MutexLock lock(ground_truth_mu_);
  if (!ground_truth_ready_) {
    ground_truth_cache_ = GroundTruthByEnumeration(2e6);
    ground_truth_ready_ = true;
  }
  return ground_truth_cache_;
}

IndexSet Program::GroundTruthByEnumeration(
    double max_enumerated_valuations) const {
  const ParamSpace& space = param_space();
  const double valuations = space.NumValuations();
  KONDO_CHECK(std::isfinite(valuations) &&
              valuations <= max_enumerated_valuations)
      << "Θ too large to enumerate for " << name()
      << "; override GroundTruth()";

  // Each run's I_v is built on its own and merged: after the first few
  // runs most are already contained, which Union detects without copying.
  IndexSet result(data_shape());
  // Odometer over the integer grid of Θ.
  const int m = space.num_params();
  std::vector<int64_t> lo(m), hi(m), cur(m);
  for (int i = 0; i < m; ++i) {
    lo[i] = static_cast<int64_t>(std::ceil(space.range(i).lo));
    hi[i] = static_cast<int64_t>(std::floor(space.range(i).hi));
    cur[i] = lo[i];
  }
  ParamValue v(m);
  while (true) {
    for (int i = 0; i < m; ++i) {
      v[i] = static_cast<double>(cur[i]);
    }
    result.Union(AccessSet(v));
    int d = m - 1;
    while (d >= 0 && ++cur[d] > hi[d]) {
      cur[d] = lo[d];
      --d;
    }
    if (d < 0) {
      break;
    }
  }
  return result;
}

}  // namespace kondo
