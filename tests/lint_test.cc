// Tests for the kondo-lint static-analysis subsystem (src/lint/).
//
// Three layers:
//   1. Unit tests over the lexer, directive parser, include graph, and the
//      flow engine (function segmentation, lock tracing, taint walking).
//   2. Rule tests on inline sources via CheckR1..CheckR6 and the global
//      LockOrderCollector directly.
//   3. End-to-end tests over tests/lint_fixtures/ — a miniature repo tree
//      whose src/{fuzz,exec,shard,carve,provenance,serve,pack} mirror the
//      real
//      determinism-critical modules, with one seeded violation per rule
//      and a clean counterpart next to each. These assert exact rule ids,
//      file:line anchors, suppression counts, and LintMain exit codes.
//
// The fixture directory is compiled in as KONDO_LINT_FIXTURES; the built
// binary path as KONDO_LINT_BINARY (for process-level exit-code checks).

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/flow.h"
#include "lint/include_graph.h"
#include "lint/lexer.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "lint/token.h"

namespace kondo {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Helpers.

std::vector<std::string> IdentTexts(const LexedFile& lexed) {
  std::vector<std::string> out;
  for (const Token& tok : lexed.tokens) {
    if (tok.kind == TokenKind::kIdentifier) {
      out.push_back(tok.text);
    }
  }
  return out;
}

bool HasIdent(const LexedFile& lexed, const std::string& name) {
  for (const Token& tok : lexed.tokens) {
    if (tok.kind == TokenKind::kIdentifier && tok.text == name) {
      return true;
    }
  }
  return false;
}

/// Runs one rule over an inline source snippet.
std::vector<Finding> RunRule(
    void (*check)(const FileContext&, std::vector<Finding>*),
    const std::string& source, bool critical) {
  const LexedFile lexed = Lex(source);
  const std::set<std::string> names = CollectUnorderedDeclNames(lexed);
  FileContext ctx;
  ctx.path = "snippet.cc";
  ctx.lexed = &lexed;
  ctx.critical = critical;
  ctx.unordered_names = &names;
  std::vector<Finding> findings;
  check(ctx, &findings);
  return findings;
}

/// Lints `paths` inside the fixture tree and fails the test on lint-runner
/// errors (not on findings — those are the assertions' subject).
LintReport LintFixture(const std::vector<std::string>& paths) {
  LintOptions options;
  options.root = KONDO_LINT_FIXTURES;
  options.paths = paths;
  const StatusOr<LintReport> report = RunLint(options);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? *report : LintReport{};
}

/// (rule, line) pairs for every finding in `report`, in report order.
std::vector<std::pair<std::string, int>> RuleLines(const LintReport& report) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& finding : report.findings) {
    out.emplace_back(finding.rule, finding.line);
  }
  return out;
}

// ---------------------------------------------------------------------------
// 1. Lexer.

TEST(LintLexerTest, CombinesScopeAndArrowPuncts) {
  const LexedFile lexed = Lex("a->b::c");
  ASSERT_EQ(lexed.tokens.size(), 5u);
  EXPECT_EQ(lexed.tokens[1].text, "->");
  EXPECT_EQ(lexed.tokens[3].text, "::");
  EXPECT_EQ(lexed.tokens[1].kind, TokenKind::kPunct);
}

TEST(LintLexerTest, CommentsAndStringsNeverLeakIdentifiers) {
  const LexedFile lexed = Lex(
      "int x = 0;  // rand() lives here\n"
      "/* std::random_device too */\n"
      "const char* s = \"rand() and \\\"random_device\\\"\";\n"
      "char c = 'r';\n");
  EXPECT_FALSE(HasIdent(lexed, "rand"));
  EXPECT_FALSE(HasIdent(lexed, "random_device"));
  EXPECT_TRUE(HasIdent(lexed, "x"));
  EXPECT_TRUE(HasIdent(lexed, "s"));
}

TEST(LintLexerTest, RawStringLiteralIsOneStringToken) {
  const LexedFile lexed = Lex("auto s = R\"(call rand() \"anywhere\")\";");
  EXPECT_FALSE(HasIdent(lexed, "rand"));
  bool saw_string = false;
  for (const Token& tok : lexed.tokens) {
    if (tok.kind == TokenKind::kString) {
      saw_string = true;
      EXPECT_NE(tok.text.find("rand()"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_string);
}

TEST(LintLexerTest, TracksLineNumbers) {
  const LexedFile lexed = Lex("one\n\ntwo\nthree");
  const std::vector<std::string> idents = IdentTexts(lexed);
  ASSERT_EQ(idents.size(), 3u);
  EXPECT_EQ(lexed.tokens[0].line, 1);
  EXPECT_EQ(lexed.tokens[1].line, 3);
  EXPECT_EQ(lexed.tokens[2].line, 4);
}

// ---------------------------------------------------------------------------
// 1b. Suppression directives.

TEST(LintDirectiveTest, EndOfLineDirectiveCoversItsOwnLine) {
  const LexedFile lexed = Lex("int a = rand();  // kondo-lint: allow(R1) x\n");
  ASSERT_EQ(lexed.suppressions.count(1), 1u);
  EXPECT_EQ(lexed.suppressions.at(1).count("R1"), 1u);
  EXPECT_EQ(lexed.suppressions.count(2), 0u);
}

TEST(LintDirectiveTest, StandaloneDirectiveCoversTheNextLine) {
  const LexedFile lexed = Lex(
      "// kondo-lint: allow(R2, R3) reason\n"
      "for (const auto& e : m) {}\n");
  ASSERT_EQ(lexed.suppressions.count(2), 1u);
  EXPECT_EQ(lexed.suppressions.at(2).count("R2"), 1u);
  EXPECT_EQ(lexed.suppressions.at(2).count("R3"), 1u);
  EXPECT_EQ(lexed.suppressions.at(2).count("R1"), 0u);
}

TEST(LintDirectiveTest, ProseMentionOfTheSyntaxIsNotADirective) {
  const LexedFile lexed =
      Lex("// justify with `kondo-lint: allow(R2) reason` when needed\n");
  EXPECT_TRUE(lexed.suppressions.empty());
  EXPECT_TRUE(lexed.malformed_directives.empty());
}

TEST(LintDirectiveTest, MalformedDirectiveIsReportedNotHonoured) {
  const LexedFile lexed = Lex("// kondo-lint: allow() oops\n");
  EXPECT_TRUE(lexed.suppressions.empty());
  ASSERT_EQ(lexed.malformed_directives.size(), 1u);
  EXPECT_EQ(lexed.malformed_directives[0].first, 1);
}

// ---------------------------------------------------------------------------
// 1c. Include graph.

TEST(LintIncludeGraphTest, ExtractsQuotedIncludeTargets) {
  const LexedFile lexed = Lex(
      "#include \"array/index_set.h\"\n"
      "#include <vector>\n");
  const std::vector<std::string> targets = ExtractIncludeTargets(lexed);
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets[0], "array/index_set.h");
}

TEST(LintIncludeGraphTest, CriticalClosureFollowsIncludes) {
  std::map<std::string, LexedFile> files;
  files["src/fuzz/driver.cc"] = Lex("#include \"array/shared.h\"\n");
  files["src/array/shared.h"] = Lex("int x;\n");
  files["src/other/outside.cc"] = Lex("int y;\n");
  const IncludeGraph graph = IncludeGraph::Build(files);
  const std::set<std::string> critical = graph.CriticalClosure({"src/fuzz/"});
  EXPECT_EQ(critical.count("src/fuzz/driver.cc"), 1u);
  EXPECT_EQ(critical.count("src/array/shared.h"), 1u)
      << "headers included by critical modules must join the closure";
  EXPECT_EQ(critical.count("src/other/outside.cc"), 0u);
}

/// Runs the global R5 collector over one inline snippet.
std::vector<Finding> RunLockOrder(const std::string& source, bool critical) {
  const LexedFile lexed = Lex(source);
  const std::set<std::string> names;
  FileContext ctx;
  ctx.path = "snippet.cc";
  ctx.lexed = &lexed;
  ctx.critical = critical;
  ctx.unordered_names = &names;
  LockOrderCollector collector;
  collector.AddFile(ctx);
  std::vector<Finding> findings;
  collector.Finish(&findings);
  return findings;
}

// ---------------------------------------------------------------------------
// 1d. Flow engine: function segmentation, lock tracing, taint walking.

TEST(LintFlowTest, SegmentsFreeQualifiedAndInlineMemberFunctions) {
  const LexedFile lexed = Lex(
      "int Free(int x) { return x; }\n"
      "void Klass::Method() { Use(); }\n"
      "class C {\n"
      " public:\n"
      "  C() : x_(0) {}\n"
      "  int Inline() const { return x_; }\n"
      " private:\n"
      "  int x_;\n"
      "};\n");
  const std::vector<FlowFunction> fns = SegmentFunctions(lexed);
  ASSERT_EQ(fns.size(), 4u);
  EXPECT_EQ(fns[0].name, "Free");
  EXPECT_EQ(fns[0].scope, "Free") << "free-function locals get a private scope";
  EXPECT_EQ(fns[0].line, 1);
  EXPECT_EQ(fns[1].name, "Klass::Method");
  EXPECT_EQ(fns[1].scope, "Klass");
  EXPECT_EQ(fns[2].name, "C") << "constructors with initialiser lists segment";
  EXPECT_EQ(fns[2].scope, "C");
  EXPECT_EQ(fns[3].name, "Inline");
  EXPECT_EQ(fns[3].scope, "C") << "inline methods inherit the class scope";
}

TEST(LintFlowTest, DeclarationsAndControlFlowAreNotFunctions) {
  const LexedFile lexed = Lex(
      "void Decl(int x);\n"
      "void F() {\n"
      "  if (Cond()) { A(); }\n"
      "  while (Cond()) { B(); }\n"
      "}\n");
  const std::vector<FlowFunction> fns = SegmentFunctions(lexed);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "F");
}

TEST(LintFlowTest, TraceLocksQualifiesAndOrdersAcquisitions) {
  const LexedFile lexed = Lex(
      "void Q::Go() {\n"
      "  MutexLock a(mu_);\n"
      "  MutexLock b(peer_->mu);\n"
      "  cv_.Wait(mu_);\n"
      "}\n");
  const std::vector<FlowFunction> fns = SegmentFunctions(lexed);
  ASSERT_EQ(fns.size(), 1u);
  const LockTrace trace = TraceLocks(lexed, fns[0]);
  ASSERT_EQ(trace.acquisitions.size(), 2u);
  EXPECT_EQ(trace.acquisitions[0].lock, "Q::mu_");
  EXPECT_TRUE(trace.acquisitions[0].held.empty());
  EXPECT_EQ(trace.acquisitions[1].lock, "Q::peer_->mu");
  ASSERT_EQ(trace.acquisitions[1].held.size(), 1u);
  EXPECT_EQ(trace.acquisitions[1].held[0], "Q::mu_");
  ASSERT_EQ(trace.waits.size(), 1u);
  EXPECT_EQ(trace.waits[0].wait_lock, "Q::mu_");
  EXPECT_EQ(trace.waits[0].held.size(), 2u);
}

TEST(LintFlowTest, RaiiGuardsReleaseAtTheirBraceScope) {
  const LexedFile lexed = Lex(
      "void Q::Go() {\n"
      "  { MutexLock a(mu_a_); }\n"
      "  MutexLock b(mu_b_);\n"
      "}\n");
  const std::vector<FlowFunction> fns = SegmentFunctions(lexed);
  ASSERT_EQ(fns.size(), 1u);
  const LockTrace trace = TraceLocks(lexed, fns[0]);
  ASSERT_EQ(trace.acquisitions.size(), 2u);
  EXPECT_TRUE(trace.acquisitions[1].held.empty())
      << "sequential scopes must not read as nested acquisitions";
}

TEST(LintFlowTest, TaintFlowsFromCursorReadThroughAssignmentToSink) {
  const LexedFile lexed = Lex(
      "bool D(Cur& c, V* out) {\n"
      "  uint32_t n = 0;\n"
      "  c.ReadU32(&n);\n"
      "  uint64_t total = n;\n"
      "  out->v.reserve(total);\n"
      "  return true;\n"
      "}\n");
  const std::vector<FlowFunction> fns = SegmentFunctions(lexed);
  ASSERT_EQ(fns.size(), 1u);
  const std::vector<TaintedUse> uses = TraceWireTaint(lexed, fns[0]);
  ASSERT_EQ(uses.size(), 1u);
  EXPECT_EQ(uses[0].variable, "total");
  EXPECT_EQ(uses[0].sink, "reserve");
  EXPECT_EQ(uses[0].sink_expr, "out->v");
  EXPECT_EQ(uses[0].line, 5);
  EXPECT_EQ(uses[0].source, "ReadU32");
  EXPECT_EQ(uses[0].source_line, 3);
}

TEST(LintFlowTest, BoundsComparisonClearsTaint) {
  const LexedFile lexed = Lex(
      "bool D(Cur& c, V* out) {\n"
      "  uint32_t n = 0;\n"
      "  c.ReadU32(&n);\n"
      "  if (n > c.remaining()) { return false; }\n"
      "  out->v.resize(n);\n"
      "  return true;\n"
      "}\n");
  const std::vector<FlowFunction> fns = SegmentFunctions(lexed);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_TRUE(TraceWireTaint(lexed, fns[0]).empty());
}

// ---------------------------------------------------------------------------
// 2. Rules on inline snippets.

TEST(LintRuleR1Test, FlagsBannedApisOnlyInCriticalFiles) {
  const std::string source = "int seed() { return rand(); }";
  EXPECT_EQ(RunRule(CheckR1, source, /*critical=*/true).size(), 1u);
  EXPECT_TRUE(RunRule(CheckR1, source, /*critical=*/false).empty());
}

TEST(LintRuleR1Test, MemberNamedLikeBannedApiIsNotFlagged) {
  EXPECT_TRUE(RunRule(CheckR1, "int x = obj.rand();", true).empty());
  EXPECT_TRUE(RunRule(CheckR1, "int y = mylib::rand();", true).empty());
  EXPECT_EQ(RunRule(CheckR1, "auto d = std::random_device{};", true).size(),
            1u);
}

TEST(LintRuleR1Test, TimeIsOnlyBannedAsWallClockRead) {
  EXPECT_EQ(RunRule(CheckR1, "long t = time(nullptr);", true).size(), 1u);
  // `time` as a plain identifier (a variable, a field) is fine.
  EXPECT_TRUE(RunRule(CheckR1, "double time = 0.5; Use(time);", true).empty());
}

TEST(LintRuleR2Test, PointerKeyedUnorderedFlaggedEvenOutsideCriticalCode) {
  const std::string source = "std::unordered_set<Node*> live;";
  ASSERT_EQ(RunRule(CheckR2, source, /*critical=*/false).size(), 1u);
  EXPECT_EQ(RunRule(CheckR2, source, false)[0].rule, "R2");
}

TEST(LintRuleR2Test, RangeForOverUnorderedOnlyFlaggedWhenCritical) {
  const std::string source =
      "std::unordered_map<std::string, int> counts;\n"
      "void f() { for (const auto& e : counts) { Use(e); } }\n";
  ASSERT_EQ(RunRule(CheckR2, source, /*critical=*/true).size(), 1u);
  EXPECT_EQ(RunRule(CheckR2, source, true)[0].line, 2);
  EXPECT_TRUE(RunRule(CheckR2, source, /*critical=*/false).empty());
}

TEST(LintRuleR2Test, SortedMaterialisationIsClean) {
  const std::string source =
      "std::map<std::string, int> counts;\n"
      "void f() { for (const auto& e : counts) { Use(e); } }\n";
  EXPECT_TRUE(RunRule(CheckR2, source, /*critical=*/true).empty());
}

TEST(LintRuleR3Test, FlagsEachSuppressionShapeOnce) {
  EXPECT_EQ(RunRule(CheckR3, "void f() { (void)writer.Close(); }", true).size(),
            1u)
      << "(void) cast must report exactly once, not once per arm";
  EXPECT_EQ(
      RunRule(CheckR3, "void f() { static_cast<void>(sink->Flush()); }", true)
          .size(),
      1u);
  EXPECT_EQ(
      RunRule(CheckR3, "void f() { std::ignore = writer.Append(e); }", true)
          .size(),
      1u);
  EXPECT_EQ(RunRule(CheckR3, "void f() { event_writer_->Append(e); }", true)
                .size(),
            1u);
}

TEST(LintRuleR3Test, HandledStatusesAreClean) {
  EXPECT_TRUE(RunRule(CheckR3,
                      "Status f() {\n"
                      "  Status s = writer.Append(e);\n"
                      "  if (!s.ok()) return s;\n"
                      "  return writer.Close();\n"
                      "}\n",
                      true)
                  .empty());
}

TEST(LintRuleR4Test, UnannotatedMutexMemberIsFlagged) {
  const std::vector<Finding> findings = RunRule(
      CheckR4,
      "class Q {\n"
      " public:\n"
      "  void Push(int v);\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> items_;\n"
      "};\n",
      true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R4");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("'Q'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'mu_'"), std::string::npos);
}

TEST(LintRuleR4Test, AnyKondoAnnotationInTheClassSatisfiesTheRule) {
  EXPECT_TRUE(RunRule(CheckR4,
                      "class Q {\n"
                      "  Mutex mu_;\n"
                      "  int n_ KONDO_GUARDED_BY(mu_) = 0;\n"
                      "};\n",
                      true)
                  .empty());
}

TEST(LintRuleR4Test, EnumClassAndForwardDeclarationsAreNotClasses) {
  EXPECT_TRUE(RunRule(CheckR4,
                      "enum class Mode { kA, kB };\n"
                      "class Fwd;\n"
                      "std::mutex global_mu;\n",
                      true)
                  .empty());
}

TEST(LintRuleR5Test, InconsistentNestingOrderIsACycleOnlyWhenCritical) {
  const std::string source =
      "class P {\n"
      " public:\n"
      "  void AB() {\n"
      "    MutexLock a(mu_a_);\n"
      "    MutexLock b(mu_b_);\n"
      "  }\n"
      "  void BA() {\n"
      "    MutexLock b(mu_b_);\n"
      "    MutexLock a(mu_a_);\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_a_;\n"
      "  Mutex mu_b_;\n"
      "};\n";
  const std::vector<Finding> findings = RunLockOrder(source, /*critical=*/true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R5");
  EXPECT_EQ(findings[0].line, 5) << "anchored at the smallest lock's edge";
  EXPECT_NE(
      findings[0].message.find("'P::mu_a_' -> 'P::mu_b_' in AB (snippet.cc:5)"),
      std::string::npos)
      << findings[0].message;
  EXPECT_NE(
      findings[0].message.find("'P::mu_b_' -> 'P::mu_a_' in BA (snippet.cc:9)"),
      std::string::npos)
      << findings[0].message;
  EXPECT_TRUE(RunLockOrder(source, /*critical=*/false).empty());
}

TEST(LintRuleR5Test, WaitWhileHoldingASecondMutexNamesTheHeldLock) {
  const std::vector<Finding> findings = RunLockOrder(
      "class G {\n"
      " public:\n"
      "  void W() {\n"
      "    MutexLock a(mu_a_);\n"
      "    MutexLock b(mu_b_);\n"
      "    cv_.Wait(mu_b_);\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_a_;\n"
      "  Mutex mu_b_;\n"
      "  CondVar cv_;\n"
      "};\n",
      /*critical=*/true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R5");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("CondVar::Wait(mu_b_) in W"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("still holding 'G::mu_a_'"),
            std::string::npos)
      << findings[0].message;
}

TEST(LintRuleR5Test, ConsistentOrderAndSoloWaitAreClean) {
  EXPECT_TRUE(RunLockOrder(
                  "class P {\n"
                  " public:\n"
                  "  void One() {\n"
                  "    MutexLock a(mu_a_);\n"
                  "    MutexLock b(mu_b_);\n"
                  "  }\n"
                  "  void Two() {\n"
                  "    MutexLock a(mu_a_);\n"
                  "    MutexLock b(mu_b_);\n"
                  "  }\n"
                  "  void Park() {\n"
                  "    MutexLock b(mu_b_);\n"
                  "    cv_.Wait(mu_b_);\n"
                  "  }\n"
                  " private:\n"
                  "  Mutex mu_a_;\n"
                  "  Mutex mu_b_;\n"
                  "  CondVar cv_;\n"
                  "};\n",
                  /*critical=*/true)
                  .empty());
}

TEST(LintRuleR5Test, SameSpellingInDistinctClassesNeverCollides) {
  // A::mu_a_ and B::mu_a_ are different mutexes; the reversed nesting in B
  // must not close a cycle against A's order.
  EXPECT_TRUE(RunLockOrder(
                  "class A {\n"
                  "  void F() {\n"
                  "    MutexLock x(mu_a_);\n"
                  "    MutexLock y(mu_b_);\n"
                  "  }\n"
                  "  Mutex mu_a_;\n"
                  "  Mutex mu_b_;\n"
                  "};\n"
                  "class B {\n"
                  "  void F() {\n"
                  "    MutexLock x(mu_b_);\n"
                  "    MutexLock y(mu_a_);\n"
                  "  }\n"
                  "  Mutex mu_a_;\n"
                  "  Mutex mu_b_;\n"
                  "};\n",
                  /*critical=*/true)
                  .empty());
}

TEST(LintRuleR6Test, UncheckedWireLengthFlaggedOnlyInCriticalFiles) {
  const std::string source =
      "bool D(Cur& c, V* out) {\n"
      "  uint32_t n = 0;\n"
      "  c.ReadU32(&n);\n"
      "  out->v.resize(n);\n"
      "  return true;\n"
      "}\n";
  const std::vector<Finding> findings = RunRule(CheckR6, source, true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R6");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("'n' carries a wire-tainted length"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("(ReadU32 at line 3)"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("'out->v.resize()'"), std::string::npos)
      << findings[0].message;
  EXPECT_TRUE(RunRule(CheckR6, source, false).empty());
}

TEST(LintRuleR6Test, NewArrayExtentIsASink) {
  const std::vector<Finding> findings = RunRule(
      CheckR6,
      "double* A(Cur& c) {\n"
      "  uint32_t n = 0;\n"
      "  c.ReadVarint(&n);\n"
      "  return new double[n];\n"
      "}\n",
      true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("a 'new double[]' allocation"),
            std::string::npos)
      << findings[0].message;
}

TEST(LintRuleR6Test, RemainingBytesComparisonSatisfiesTheRule) {
  EXPECT_TRUE(RunRule(CheckR6,
                      "bool D(Cur& c, V* out) {\n"
                      "  uint32_t n = 0;\n"
                      "  c.ReadU32(&n);\n"
                      "  if (n > c.remaining()) { return false; }\n"
                      "  out->v.resize(n);\n"
                      "  return true;\n"
                      "}\n",
                      true)
                  .empty());
}

// ---------------------------------------------------------------------------
// 3. Fixture tree, per file: exact rule ids and line anchors.

TEST(LintFixtureTest, R1BadAnchorsEveryViolation) {
  const LintReport report = LintFixture({"src/fuzz/r1_bad.cc"});
  EXPECT_EQ(RuleLines(report),
            (std::vector<std::pair<std::string, int>>{
                {"R1", 9}, {"R1", 14}, {"R1", 18}}));
  for (const Finding& finding : report.findings) {
    EXPECT_EQ(finding.file, "src/fuzz/r1_bad.cc");
  }
}

TEST(LintFixtureTest, R1CleanCounterpartIsClean) {
  EXPECT_TRUE(LintFixture({"src/fuzz/r1_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, ServeModuleIsInTheCriticalClosure) {
  // The daemon code joined critical_modules with the serve subsystem; a
  // seeded wall-clock read and a getpid() in the serve mirror must anchor
  // as R1, proving the closure covers src/serve/.
  const LintReport report = LintFixture({"src/serve/r1_bad.cc"});
  EXPECT_EQ(RuleLines(report), (std::vector<std::pair<std::string, int>>{
                                   {"R1", 10}, {"R1", 14}}));
  for (const Finding& finding : report.findings) {
    EXPECT_EQ(finding.file, "src/serve/r1_bad.cc");
  }
}

TEST(LintFixtureTest, ServeCleanCounterpartIsClean) {
  // steady_clock and a daemon-minted session counter are the allowed
  // spellings of what r1_bad.cc does wrong.
  EXPECT_TRUE(LintFixture({"src/serve/r1_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, R2BadAnchorsPointerKeyAndIteration) {
  const LintReport report = LintFixture({"src/exec/r2_bad.cc"});
  EXPECT_EQ(RuleLines(report), (std::vector<std::pair<std::string, int>>{
                                   {"R2", 14}, {"R2", 19}}));
}

TEST(LintFixtureTest, R2CleanCounterpartIsClean) {
  EXPECT_TRUE(LintFixture({"src/exec/r2_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, FleetModuleIsInTheCriticalClosure) {
  // The distributed-fleet code joined critical_modules: a pointer-keyed
  // session set and dispatch-order iteration over an unordered shard map
  // in the fleet mirror must anchor as R2, proving the closure covers
  // src/fleet/.
  const LintReport report = LintFixture({"src/fleet/r2_bad.cc"});
  EXPECT_EQ(RuleLines(report), (std::vector<std::pair<std::string, int>>{
                                   {"R2", 15}, {"R2", 21}}));
  for (const Finding& finding : report.findings) {
    EXPECT_EQ(finding.file, "src/fleet/r2_bad.cc");
  }
}

TEST(LintFixtureTest, FleetCleanCounterpartIsClean) {
  // An id-ordered session map and a sorted dispatch order are the allowed
  // spellings of what r2_bad.cc does wrong.
  EXPECT_TRUE(LintFixture({"src/fleet/r2_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, R3BadAnchorsAllThreeDiscardShapes) {
  const LintReport report = LintFixture({"src/provenance/r3_bad.cc"});
  EXPECT_EQ(RuleLines(report),
            (std::vector<std::pair<std::string, int>>{
                {"R3", 15}, {"R3", 16}, {"R3", 17}}));
}

TEST(LintFixtureTest, R3CleanCounterpartIsClean) {
  EXPECT_TRUE(LintFixture({"src/provenance/r3_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, PackModuleIsInTheCriticalClosure) {
  // The KDP packaging code joined critical_modules; a bare chunk append and
  // a (void)-cast flush in the pack mirror must anchor as R3, proving the
  // closure covers src/pack/.
  const LintReport report = LintFixture({"src/pack/r3_bad.cc"});
  EXPECT_EQ(RuleLines(report), (std::vector<std::pair<std::string, int>>{
                                   {"R3", 14}, {"R3", 15}}));
  for (const Finding& finding : report.findings) {
    EXPECT_EQ(finding.file, "src/pack/r3_bad.cc");
  }
}

TEST(LintFixtureTest, PackCleanCounterpartIsClean) {
  // Propagating every writer Status is the allowed spelling of what
  // r3_bad.cc does wrong.
  EXPECT_TRUE(LintFixture({"src/pack/r3_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, R4BadAnchorsEachUnannotatedMutexMember) {
  const LintReport report = LintFixture({"src/shard/r4_bad.cc"});
  EXPECT_EQ(RuleLines(report), (std::vector<std::pair<std::string, int>>{
                                   {"R4", 16}, {"R4", 17}}));
}

TEST(LintFixtureTest, R4CleanCounterpartIsClean) {
  EXPECT_TRUE(LintFixture({"src/shard/r4_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, R5CycleBadAnchorsTheWitnessPath) {
  const LintReport report = LintFixture({"src/serve/r5_cycle_bad.cc"});
  ASSERT_EQ(RuleLines(report),
            (std::vector<std::pair<std::string, int>>{{"R5", 14}}));
  const Finding& finding = report.findings[0];
  EXPECT_EQ(finding.file, "src/serve/r5_cycle_bad.cc");
  EXPECT_NE(finding.message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(finding.message.find("'ResultLedger::mu_a_' -> "
                                 "'ResultLedger::mu_b_' in Credit "
                                 "(src/serve/r5_cycle_bad.cc:14)"),
            std::string::npos)
      << finding.message;
  EXPECT_NE(finding.message.find("'ResultLedger::mu_b_' -> "
                                 "'ResultLedger::mu_a_' in Debit "
                                 "(src/serve/r5_cycle_bad.cc:20)"),
            std::string::npos)
      << finding.message;
  EXPECT_NE(finding.message.find("deadlock"), std::string::npos);
}

TEST(LintFixtureTest, R5WaitBadAnchorsTheWaitSite) {
  const LintReport report = LintFixture({"src/serve/r5_wait_bad.cc"});
  ASSERT_EQ(RuleLines(report),
            (std::vector<std::pair<std::string, int>>{{"R5", 16}}));
  const Finding& finding = report.findings[0];
  EXPECT_NE(finding.message.find("CondVar::Wait(mu_) in Drain"),
            std::string::npos);
  EXPECT_NE(finding.message.find("still holding 'DrainGate::admit_mu_'"),
            std::string::npos)
      << finding.message;
}

TEST(LintFixtureTest, R5CleanCounterpartIsCleanAndCountsItsSuppression) {
  // OrderedLedger nests mu_a_ before mu_b_ everywhere and its one
  // deliberate wait-while-holding carries a justified allow(R5).
  const LintReport report = LintFixture({"src/serve/r5_clean.cc"});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 1);
}

TEST(LintFixtureTest, R6BadAnchorsBothSinksAndNamesTheTaintingRead) {
  const LintReport report = LintFixture({"src/serve/r6_bad.cc"});
  ASSERT_EQ(RuleLines(report), (std::vector<std::pair<std::string, int>>{
                                   {"R6", 23}, {"R6", 30}}));
  EXPECT_NE(report.findings[0].message.find(
                "'count' carries a wire-tainted length (ReadU32 at line 22)"),
            std::string::npos)
      << report.findings[0].message;
  EXPECT_NE(report.findings[1].message.find(
                "'extent' carries a wire-tainted length (ReadU32 at line 29)"),
            std::string::npos)
      << report.findings[1].message;
  EXPECT_NE(report.findings[1].message.find("a 'new double[]' allocation"),
            std::string::npos);
}

TEST(LintFixtureTest, R6CleanCounterpartIsCleanAndCountsItsSuppression) {
  // Comparing against cur.remaining() before the resize clears the taint;
  // the one unchecked resize carries a justified allow(R6).
  const LintReport report = LintFixture({"src/serve/r6_clean.cc"});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 1);
}

TEST(LintFixtureTest, R6SeesTheI64CountsOfFileDecoders) {
  const LintReport report = LintFixture({"src/pack/r6_bad.cc"});
  ASSERT_EQ(RuleLines(report),
            (std::vector<std::pair<std::string, int>>{{"R6", 23}}));
  EXPECT_NE(
      report.findings[0].message.find(
          "'num_chunks' carries a wire-tainted length (ReadI64 at line 22)"),
      std::string::npos)
      << report.findings[0].message;
}

TEST(LintFixtureTest, R6PackCleanCounterpartIsClean) {
  EXPECT_TRUE(LintFixture({"src/pack/r6_clean.cc"}).findings.empty());
}

TEST(LintFixtureTest, WellFormedDirectivesSuppressAndAreCounted) {
  const LintReport report = LintFixture({"src/carve/suppressed.cc"});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 2);
}

TEST(LintFixtureTest, MalformedDirectiveSurfacesAsLintRule) {
  const LintReport report = LintFixture({"src/carve/malformed.cc"});
  EXPECT_EQ(RuleLines(report),
            (std::vector<std::pair<std::string, int>>{{"LINT", 5}}));
}

TEST(LintFixtureTest, NoncriticalModuleEscapesR1AndR2Iteration) {
  EXPECT_TRUE(LintFixture({"src/util/noncritical_ok.cc"}).findings.empty());
}

TEST(LintFixtureTest, WholeTreeTotalsAreExact) {
  const LintReport report = LintFixture({"src"});
  EXPECT_EQ(report.files_scanned, 24);
  EXPECT_EQ(report.suppressed, 4);
  std::map<std::string, int> by_rule;
  for (const Finding& finding : report.findings) {
    ++by_rule[finding.rule];
  }
  EXPECT_EQ(by_rule["R1"], 5);
  EXPECT_EQ(by_rule["R2"], 4);
  EXPECT_EQ(by_rule["R3"], 5);
  EXPECT_EQ(by_rule["R4"], 2);
  EXPECT_EQ(by_rule["R5"], 2);
  EXPECT_EQ(by_rule["R6"], 3);
  EXPECT_EQ(by_rule["LINT"], 1);
  EXPECT_EQ(report.findings.size(), 22u);
}

// ---------------------------------------------------------------------------
// 3b. LintMain: flags, report format, exit codes.

TEST(LintMainTest, ExitsOneAndPrintsAnchorsOnFindings) {
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      LintMain({"--root", KONDO_LINT_FIXTURES, "src"}, out, err);
  EXPECT_EQ(code, 1);
  const std::string text = out.str();
  EXPECT_NE(text.find("src/fuzz/r1_bad.cc:9: [R1]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("src/exec/r2_bad.cc:14: [R2]"), std::string::npos);
  EXPECT_NE(text.find("src/provenance/r3_bad.cc:16: [R3]"),
            std::string::npos);
  EXPECT_NE(text.find("src/shard/r4_bad.cc:16: [R4]"), std::string::npos);
  EXPECT_NE(text.find("src/serve/r1_bad.cc:14: [R1]"), std::string::npos);
  EXPECT_NE(text.find("src/pack/r3_bad.cc:14: [R3]"), std::string::npos);
  EXPECT_NE(text.find("src/fleet/r2_bad.cc:15: [R2]"), std::string::npos);
  EXPECT_NE(text.find("src/carve/malformed.cc:5: [LINT]"),
            std::string::npos);
  EXPECT_NE(text.find("src/serve/r5_cycle_bad.cc:14: [R5]"),
            std::string::npos);
  EXPECT_NE(text.find("src/serve/r5_wait_bad.cc:16: [R5]"),
            std::string::npos);
  EXPECT_NE(text.find("src/serve/r6_bad.cc:23: [R6]"), std::string::npos);
  EXPECT_NE(text.find("src/pack/r6_bad.cc:23: [R6]"), std::string::npos);
  EXPECT_NE(text.find("22 finding(s) across 24 file(s) (4 suppressed)"),
            std::string::npos);
}

TEST(LintMainTest, ExitsZeroOnCleanInput) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = LintMain(
      {"--root", KONDO_LINT_FIXTURES, "src/fuzz/r1_clean.cc"}, out, err);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.str().find("0 finding(s)"), std::string::npos);
}

TEST(LintMainTest, RulesFlagRestrictsToTheListedRules) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = LintMain(
      {"--root", KONDO_LINT_FIXTURES, "--rules", "R1", "src"}, out, err);
  EXPECT_EQ(code, 1);
  const std::string text = out.str();
  EXPECT_NE(text.find("[R1]"), std::string::npos);
  EXPECT_EQ(text.find("[R2]"), std::string::npos);
  EXPECT_EQ(text.find("[R3]"), std::string::npos);
  EXPECT_EQ(text.find("[R4]"), std::string::npos);
  EXPECT_EQ(text.find("[R5]"), std::string::npos);
  EXPECT_EQ(text.find("[R6]"), std::string::npos);
  // Malformed directives stay fatal under any rule filter: a typo must
  // never silently disable linting.
  EXPECT_NE(text.find("[LINT]"), std::string::npos);
}

TEST(LintMainTest, JsonFormatEmitsMachineReadableReport) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = LintMain(
      {"--root", KONDO_LINT_FIXTURES, "--format=json", "src"}, out, err);
  EXPECT_EQ(code, 1) << "findings still drive the exit code in json mode";
  const std::string text = out.str();
  EXPECT_NE(text.find("\"tool\": \"kondo-lint\""), std::string::npos);
  EXPECT_NE(text.find("\"files_scanned\": 24"), std::string::npos) << text;
  EXPECT_NE(text.find("\"suppressed\": 4"), std::string::npos);
  EXPECT_NE(text.find("{\"file\": \"src/fuzz/r1_bad.cc\", \"line\": 9, "
                      "\"rule\": \"R1\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"rule\": \"R5\""), std::string::npos);
  EXPECT_NE(text.find("\"rule\": \"R6\""), std::string::npos);
  EXPECT_EQ(text.find(": [R1]"), std::string::npos)
      << "json mode must not interleave the text report";
}

TEST(LintMainTest, JsonReportEscapesQuotesBackslashesAndControlBytes) {
  LintReport report;
  report.files_scanned = 1;
  report.findings.push_back(
      Finding{"R1", "src/a.cc", 3, "saw \"quoted\\path\"\n\tand a tab"});
  std::ostringstream out;
  PrintJsonReport(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("saw \\\"quoted\\\\path\\\"\\n\\tand a tab"),
            std::string::npos)
      << text;
}

TEST(LintMainTest, JsonCleanReportHasEmptyFindingsArray) {
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      LintMain({"--root", KONDO_LINT_FIXTURES, "--format", "json",
                "src/fuzz/r1_clean.cc"},
               out, err);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.str().find("\"findings\": []"), std::string::npos)
      << out.str();
}

TEST(LintMainTest, UnknownFormatExitsTwo) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(LintMain({"--format=xml"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown --format 'xml'"), std::string::npos);
}

TEST(LintMainTest, ExitsTwoOnUnknownFlagOrBadPath) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(LintMain({"--bogus"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown flag"), std::string::npos);
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(LintMain({"--root", KONDO_LINT_FIXTURES, "no/such/dir"}, out2,
                     err2),
            2);
}

TEST(LintMainTest, HelpExitsZero) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(LintMain({"--help"}, out, err), 0);
  EXPECT_NE(out.str().find("exit codes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 3c. The shipped binary: process-level exit codes match LintMain's.

TEST(LintBinaryTest, ProcessExitCodesMatchContract) {
  const std::string binary = KONDO_LINT_BINARY;
  const std::string fixtures = KONDO_LINT_FIXTURES;
  const int findings_code = std::system(
      (binary + " --root " + fixtures + " src > /dev/null 2>&1").c_str());
  ASSERT_NE(findings_code, -1);
  EXPECT_EQ(WEXITSTATUS(findings_code), 1);
  const int clean_code = std::system(
      (binary + " --root " + fixtures +
       " src/exec/r2_clean.cc > /dev/null 2>&1")
          .c_str());
  EXPECT_EQ(WEXITSTATUS(clean_code), 0);
  const int usage_code =
      std::system((binary + " --definitely-not-a-flag > /dev/null 2>&1")
                      .c_str());
  EXPECT_EQ(WEXITSTATUS(usage_code), 2);
}

}  // namespace
}  // namespace lint
}  // namespace kondo
