#ifndef KONDO_LINT_LINTER_H_
#define KONDO_LINT_LINTER_H_

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "lint/rules.h"

namespace kondo {
namespace lint {

/// What to lint and which rules to run.
struct LintOptions {
  /// Repository root; module criticality and report paths are relative to
  /// it.
  std::string root = ".";

  /// Files or directories (relative to `root`) to scan. Directories are
  /// walked recursively for C++ sources.
  std::vector<std::string> paths = {"src"};

  /// Enabled rules; default all.
  std::set<std::string> rules = {"R1", "R2", "R3", "R4", "R5", "R6"};

  /// Path prefixes (relative to `root`, trailing slash implied) whose files
  /// — and transitive includes — are determinism-critical. These are the
  /// modules whose artefacts must be bit-identical under replay, the shared
  /// substrate they all stand on (sockets, env), the audit trail that
  /// replays them, and the test-side fault injectors, whose schedules must
  /// replay as exactly as the artefacts they break.
  std::vector<std::string> critical_modules = {
      "src/fuzz/", "src/exec/", "src/shard/",      "src/carve/",
      "src/provenance/", "src/serve/", "src/pack/", "src/fleet/",
      "src/audit/", "src/common/", "tests/support/"};
};

/// Outcome of one lint run.
struct LintReport {
  std::vector<Finding> findings;  // Sorted by (file, line, rule).
  int files_scanned = 0;
  int suppressed = 0;  // Findings dropped by kondo-lint: allow directives.
};

/// Lints the configured tree. Returns an error Status only for
/// environmental failures (unreadable root, missing path) — findings are
/// data, not errors.
StatusOr<LintReport> RunLint(const LintOptions& options);

/// Renders `report` in the canonical `path:line: [RULE] message` format.
void PrintReport(const LintReport& report, std::ostream& out);

/// Renders `report` as a single JSON object — stable key order, findings
/// sorted like the text report — for CI artifacts and problem matchers:
///   {"tool": "kondo-lint", "files_scanned": N, "suppressed": N,
///    "findings": [{"file": ..., "line": N, "rule": ..., "message": ...}]}
void PrintJsonReport(const LintReport& report, std::ostream& out);

/// The kondo_lint CLI: parses `args` (everything after argv[0]), runs the
/// lint, prints the report to `out` and errors to `err`. Returns the
/// process exit code: 0 clean, 1 findings, 2 usage or IO error.
int LintMain(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);

}  // namespace lint
}  // namespace kondo

#endif  // KONDO_LINT_LINTER_H_
