#include "lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <ostream>

#include "common/env.h"
#include "lint/include_graph.h"
#include "lint/lexer.h"

namespace kondo {
namespace lint {
namespace {

namespace fs = std::filesystem;

bool IsCppSource(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp" || ext == ".cxx" || ext == ".inl" || ext == ".inc";
}

/// `path` relative to `root`, with '/' separators (report format).
std::string RelativeTo(const fs::path& path, const fs::path& root) {
  return fs::relative(path, root).generic_string();
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

StatusOr<LintReport> RunLint(const LintOptions& options) {
  const fs::path root(options.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return InvalidArgumentError("lint root is not a directory: " +
                                options.root);
  }

  // Discover files. A std::map keyed by repo-relative path makes every
  // later stage — include resolution, criticality, reporting — ordered and
  // therefore deterministic.
  std::map<std::string, LexedFile> files;
  for (const std::string& rel : options.paths) {
    const fs::path at = root / rel;
    if (fs::is_regular_file(at, ec)) {
      std::string source;
      KONDO_RETURN_IF_ERROR(ReadFileToString(at.string(), &source));
      files[RelativeTo(at, root)] = Lex(source);
      continue;
    }
    if (!fs::is_directory(at, ec)) {
      return InvalidArgumentError("no such file or directory under root: " +
                                  rel);
    }
    for (fs::recursive_directory_iterator it(at, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        return InternalError("walking " + rel + ": " + ec.message());
      }
      if (!it->is_regular_file() || !IsCppSource(it->path())) {
        continue;
      }
      std::string source;
      KONDO_RETURN_IF_ERROR(ReadFileToString(it->path().string(), &source));
      files[RelativeTo(it->path(), root)] = Lex(source);
    }
  }

  const IncludeGraph graph = IncludeGraph::Build(files);
  std::set<std::string> critical =
      graph.CriticalClosure(options.critical_modules);

  // The closure walks *includes of* critical files, which can never reach a
  // .cc — yet src/array/index_set.cc shapes fuzz results exactly as much as
  // the index_set.h that src/fuzz includes. An implementation file inherits
  // the criticality of its same-stem header.
  for (const auto& [path, lexed] : files) {
    (void)lexed;
    const size_t dot = path.rfind('.');
    if (dot == std::string::npos || critical.count(path) > 0) {
      continue;
    }
    const std::string ext = path.substr(dot);
    if (ext != ".cc" && ext != ".cpp" && ext != ".cxx") {
      continue;
    }
    for (const char* header_ext : {".h", ".hh", ".hpp"}) {
      if (critical.count(path.substr(0, dot) + header_ext) > 0) {
        critical.insert(path);
        break;
      }
    }
  }

  // Unordered-container declarations, per file; a file's effective name set
  // is its own plus its direct includes' (a .cc sees its header's members).
  std::map<std::string, std::set<std::string>> declared;
  for (const auto& [path, lexed] : files) {
    declared[path] = CollectUnorderedDeclNames(lexed);
  }

  LintReport report;
  report.files_scanned = static_cast<int>(files.size());
  LockOrderCollector lock_order;
  for (const auto& [path, lexed] : files) {
    std::set<std::string> names = declared[path];
    for (const std::string& inc : graph.DirectIncludes(path)) {
      const auto& inc_names = declared[inc];
      names.insert(inc_names.begin(), inc_names.end());
    }

    FileContext ctx;
    ctx.path = path;
    ctx.lexed = &lexed;
    ctx.critical = critical.count(path) > 0;
    ctx.unordered_names = &names;
    report.suppressed += CheckFile(ctx, options.rules, &report.findings);
    if (options.rules.count("R5") > 0) {
      lock_order.AddFile(ctx);
    }
  }
  if (options.rules.count("R5") > 0) {
    // R5 is a whole-closure analysis: its findings only exist once every
    // file has fed the acquisition-order graph.
    report.suppressed += lock_order.Finish(&report.findings);
    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
  }
  return report;
}

void PrintReport(const LintReport& report, std::ostream& out) {
  for (const Finding& finding : report.findings) {
    out << finding.file << ":" << finding.line << ": [" << finding.rule
        << "] " << finding.message << "\n";
  }
  out << "kondo-lint: " << report.findings.size() << " finding(s) across "
      << report.files_scanned << " file(s)";
  if (report.suppressed > 0) {
    out << " (" << report.suppressed << " suppressed)";
  }
  out << "\n";
}

void PrintJsonReport(const LintReport& report, std::ostream& out) {
  const auto escape = [](const std::string& s) {
    std::string esc;
    esc.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"':
          esc += "\\\"";
          break;
        case '\\':
          esc += "\\\\";
          break;
        case '\n':
          esc += "\\n";
          break;
        case '\t':
          esc += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            constexpr char kHex[] = "0123456789abcdef";
            esc += "\\u00";
            esc += kHex[(c >> 4) & 0xf];
            esc += kHex[c & 0xf];
          } else {
            esc += c;
          }
      }
    }
    return esc;
  };

  out << "{\n"
      << "  \"tool\": \"kondo-lint\",\n"
      << "  \"files_scanned\": " << report.files_scanned << ",\n"
      << "  \"suppressed\": " << report.suppressed << ",\n"
      << "  \"findings\": [";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"file\": \"" << escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \"" << escape(f.rule)
        << "\", \"message\": \"" << escape(f.message) << "\"}";
  }
  out << (report.findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

int LintMain(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  LintOptions options;
  std::vector<std::string> paths;
  std::string format = "text";

  auto value_of = [](const std::string& arg,
                     const std::string& flag) -> const char* {
    if (StartsWith(arg, flag + "=")) {
      return arg.c_str() + flag.size() + 1;
    }
    return nullptr;
  };

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out << "usage: kondo_lint [--root DIR] [--rules R1,R2,...] "
             "[--format text|json] [path...]\n\n"
             "Lints C++ sources for Kondo's determinism & concurrency\n"
             "invariants (default tree: src/ under --root, default rules\n"
             "R1-R6; see docs/STATIC_ANALYSIS.md).\n\n"
             "exit codes: 0 clean, 1 findings, 2 usage/IO error\n";
      return 0;
    }
    if (const char* v = value_of(arg, "--format")) {
      format = v;
      continue;
    }
    if (arg == "--format" && i + 1 < args.size()) {
      format = args[++i];
      continue;
    }
    if (const char* v = value_of(arg, "--root")) {
      options.root = v;
      continue;
    }
    if (arg == "--root" && i + 1 < args.size()) {
      options.root = args[++i];
      continue;
    }
    if (const char* v = value_of(arg, "--rules")) {
      options.rules.clear();
      std::string id;
      for (const char* p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!id.empty()) {
            options.rules.insert(id);
          }
          id.clear();
          if (*p == '\0') {
            break;
          }
        } else {
          id += *p;
        }
      }
      continue;
    }
    if (arg == "--rules" && i + 1 < args.size()) {
      // Re-enter the '=' path for a uniform parse.
      const std::string joined = "--rules=" + args[++i];
      options.rules.clear();
      std::string id;
      for (const char* p = joined.c_str() + 8;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!id.empty()) {
            options.rules.insert(id);
          }
          id.clear();
          if (*p == '\0') {
            break;
          }
        } else {
          id += *p;
        }
      }
      continue;
    }
    if (StartsWith(arg, "-")) {
      err << "kondo_lint: unknown flag '" << arg << "'\n"
          << "usage: kondo_lint [--root DIR] [--rules R1,R2,...] "
             "[--format text|json] [path...]\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (format != "text" && format != "json") {
    err << "kondo_lint: unknown --format '" << format
        << "' (expected text or json)\n";
    return 2;
  }
  if (!paths.empty()) {
    options.paths = std::move(paths);
  }

  const StatusOr<LintReport> report = RunLint(options);
  if (!report.ok()) {
    err << "kondo_lint: " << report.status() << "\n";
    return 2;
  }
  if (format == "json") {
    PrintJsonReport(*report, out);
  } else {
    PrintReport(*report, out);
  }
  return report->findings.empty() ? 0 : 1;
}

}  // namespace lint
}  // namespace kondo
