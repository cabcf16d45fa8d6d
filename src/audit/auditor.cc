#include "audit/auditor.h"

#include <utility>

namespace kondo {

StatusOr<AuditReport> RunAudited(
    const std::string& path, int64_t pid,
    const std::function<Status(TracedFile&)>& body, EventLog* log_out) {
  constexpr int64_t kFileId = 1;
  EventLog log;
  KONDO_ASSIGN_OR_RETURN(TracedFile file,
                         TracedFile::Open(path, pid, kFileId, &log));
  KONDO_RETURN_IF_ERROR(body(file));
  file.Close();

  AuditReport report;
  report.accessed_ranges = log.AccessedRanges(kFileId);
  OffsetMapper mapper(&file.reader().layout(), file.reader().payload_offset());
  report.accessed_indices = mapper.IndicesForRanges(report.accessed_ranges);
  report.num_events = log.NumEvents();
  report.saw_writes = log.HasWrites(kFileId);
  if (log_out != nullptr) {
    *log_out = std::move(log);
  }
  return report;
}

}  // namespace kondo
