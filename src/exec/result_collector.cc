#include "exec/result_collector.h"

#include <utility>

namespace kondo {

ResultCollector::ResultCollector(Shape /*shape*/, AuditPersistFn persist)
    : persist_(std::move(persist)) {}

void ResultCollector::EnablePerFile(const std::vector<Shape>& file_shapes) {
  per_file_.clear();
  per_file_.reserve(file_shapes.size());
  for (const Shape& shape : file_shapes) {
    per_file_.emplace_back(shape);
  }
}

Status ResultCollector::Collect(const CandidateResult& result) {
  if (writing_.exchange(true, std::memory_order_acquire)) {
    return FailedPreconditionError(
        "ResultCollector::Collect is single-writer: a concurrent Collect is "
        "in flight; funnel results through one consumption thread");
  }
  Status status = OkStatus();
  if (!per_file_.empty() && !result.per_file.empty()) {
    const size_t files = std::min(per_file_.size(), result.per_file.size());
    for (size_t f = 0; f < files; ++f) {
      per_file_[f].Union(result.per_file[f]);
    }
  }
  if (persist_ && result.log != nullptr) {
    status = persist_(*result.log);
    if (status.ok()) {
      ++persisted_;
    }
  }
  if (status.ok()) {
    ++collected_;
  }
  writing_.store(false, std::memory_order_release);
  return status;
}

}  // namespace kondo
