#include "core/debloat_test.h"

#include <utility>

#include "audit/auditor.h"
#include "common/logging.h"

namespace kondo {

DebloatTestFn MakeDebloatTest(const Program& program) {
  return [&program](const ParamValue& v) { return program.AccessSet(v); };
}

CandidateTestFn MakeCandidateTest(const Program& program) {
  return [&program](const TestCandidate& candidate) {
    CandidateResult result;
    result.accessed = program.AccessSet(candidate.value);
    return result;
  };
}

DebloatTestFn MakeAuditedDebloatTest(const Program& program,
                                     const std::string& kdf_path) {
  return [&program, kdf_path](const ParamValue& v) {
    StatusOr<AuditReport> report = RunAudited(
        kdf_path, /*pid=*/1,
        [&program, &v](TracedFile& file) {
          return program.ExecuteOnFile(v, file);
        });
    KONDO_CHECK(report.ok()) << "audited debloat test failed: "
                             << report.status();
    return std::move(*report).accessed_indices;
  };
}

CandidateTestFn MakeAuditedCandidateTest(const Program& program,
                                         const std::string& kdf_path) {
  return [&program, kdf_path](const TestCandidate& candidate) {
    auto log = std::make_shared<EventLog>();
    StatusOr<AuditReport> report = RunAudited(
        kdf_path, /*pid=*/1 + candidate.seq,
        [&program, &candidate](TracedFile& file) {
          return program.ExecuteOnFile(candidate.value, file);
        },
        log.get());
    KONDO_CHECK(report.ok()) << "audited debloat test failed: "
                             << report.status();
    CandidateResult result;
    result.accessed = std::move(*report).accessed_indices;
    result.log = std::move(log);
    return result;
  };
}

}  // namespace kondo
