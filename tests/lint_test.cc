// ntadoc-lint self-checks: every rule fires on its negative fixture,
// stays quiet on its positive fixture, suppressions work, and the real
// tree lints clean (the clean-tree gate tools/check_static.sh enforces).

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ntadoc_lint.h"

#ifndef NTADOC_REPO_ROOT
#error "NTADOC_REPO_ROOT must be defined by the build"
#endif
#ifndef NTADOC_LINT_FIXTURES
#error "NTADOC_LINT_FIXTURES must be defined by the build"
#endif

namespace ntadoc::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(NTADOC_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::set<std::string> RulesIn(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

// Indexes + lints one fixture under a synthetic src/ path (the path
// drives rule scoping, so fixtures lint "as if" they lived in-tree).
std::vector<Finding> LintFixture(const std::string& name,
                                 const std::string& as_path) {
  const std::string content = ReadFixture(name);
  Linter linter;
  linter.IndexStatusFunctions(as_path, content);
  std::vector<Finding> findings;
  linter.LintFile(as_path, content, &findings);
  return findings;
}

TEST(LintRuleL1, FiresOnEveryEscapeShape) {
  const auto findings = LintFixture("l1_bad.cc", "src/l1_bad.cc");
  EXPECT_EQ(RulesIn(findings), std::set<std::string>{"L1"});
  // Member store, static store, use after a write and after a region
  // load.
  EXPECT_EQ(findings.size(), 4u) << FormatFinding(findings[0]);
  std::set<int> lines;
  for (const Finding& f : findings) lines.insert(f.line);
  EXPECT_EQ(lines, (std::set<int>{16, 23, 30, 36}));
}

TEST(LintRuleL1, SanctionedIdiomsStayClean) {
  for (const Finding& f : LintFixture("l1_good.cc", "src/l1_good.cc")) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintRuleL2, FiresOnRawMemoryInAnalyticsLayer) {
  const auto findings = LintFixture("l2_bad.cc", "src/core/l2_bad.cc");
  EXPECT_EQ(RulesIn(findings), std::set<std::string>{"L2"});
  EXPECT_EQ(findings.size(), 3u);  // memcpy, memmove, memset
}

TEST(LintRuleL2, ScopesToAnalyticsLayers) {
  // The same raw calls are the charging implementation inside src/nvm.
  for (const Finding& f : LintFixture("l2_bad.cc", "src/nvm/l2_bad.cc")) {
    ADD_FAILURE() << FormatFinding(f);
  }
  for (const Finding& f : LintFixture("l2_good.cc", "src/core/l2_good.cc")) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintRuleL3, FiresOnDiscardedStatusCalls) {
  const auto findings = LintFixture("l3_bad.cc", "src/l3_bad.cc");
  EXPECT_EQ(RulesIn(findings), std::set<std::string>{"L3"});
  // Bare call, Result<T> call, member call, call in a control body.
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintRuleL3, ConsumedStatusStaysClean) {
  for (const Finding& f : LintFixture("l3_good.cc", "src/l3_good.cc")) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

// The L3 index is auto-collected from Status-returning declarations
// tree-wide: the tiered-placement migration surface (Migrate*/Promote*
// in src/nvm/tiered_pool.h) must register without hand-listing names,
// so a caller discarding a migration Status is flagged.
TEST(LintRuleL3, IndexesTieredPoolMigrationSurface) {
  const std::string header_path =
      std::string(NTADOC_REPO_ROOT) + "/src/nvm/tiered_pool.h";
  std::ifstream in(header_path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "cannot open " << header_path;
  std::ostringstream buf;
  buf << in.rdbuf();

  Linter linter;
  linter.IndexStatusFunctions("src/nvm/tiered_pool.h", buf.str());
  const std::string code =
      "void Tick(nvm::TieredPool* pool, nvm::RedoLog* log) {\n"
      "  pool->MaybeMigrate(log);\n"
      "  pool->MigrateRange(0, 1, log);\n"
      "  pool->PromoteHottest(log);\n"
      "}\n";
  std::vector<Finding> findings;
  linter.LintFile("src/core/tick.cc", code, &findings);
  EXPECT_EQ(RulesIn(findings), std::set<std::string>{"L3"});
  EXPECT_EQ(findings.size(), 3u)
      << "MaybeMigrate, MigrateRange and PromoteHottest must all be in "
         "the L3 index";
}

TEST(LintRuleL4, FiresOnBareStdLocking) {
  const auto findings = LintFixture("l4_bad.cc", "src/l4_bad.cc");
  EXPECT_EQ(RulesIn(findings), std::set<std::string>{"L4"});
  EXPECT_GE(findings.size(), 3u);  // mutex, condition_variable, lock_guard
}

TEST(LintRuleL4, AnnotatedWrappersStayClean) {
  for (const Finding& f : LintFixture("l4_good.cc", "src/l4_good.cc")) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintRuleL5, FiresOnWallClockSources) {
  const auto findings = LintFixture("l5_bad.cc", "src/l5_bad.cc");
  EXPECT_EQ(RulesIn(findings), std::set<std::string>{"L5"});
  // system_clock, steady_clock, rand(), srand().
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintRuleL5, SimClockAndSeededPrngStayClean) {
  for (const Finding& f : LintFixture("l5_good.cc", "src/l5_good.cc")) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintSuppressions, LineAllowCoversSameAndNextLine) {
  const std::string code =
      "#include <mutex>\n"
      "struct S {\n"
      "  // ntadoc-lint: allow(L4)\n"
      "  std::mutex covered_by_previous_line;\n"
      "  std::mutex flagged;  // ntadoc-lint: allow(L1) -- wrong rule\n"
      "};\n";
  Linter linter;
  std::vector<Finding> findings;
  linter.LintFile("src/suppress.cc", code, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "L4");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintSuppressions, AllowFileCoversWholeFile) {
  const std::string code =
      "// ntadoc-lint: allow-file(L4,L5)\n"
      "#include <mutex>\n"
      "std::mutex a;\n"
      "std::mutex b;\n"
      "int t() { return rand(); }\n";
  Linter linter;
  std::vector<Finding> findings;
  linter.LintFile("src/suppress_file.cc", code, &findings);
  for (const Finding& f : findings) ADD_FAILURE() << FormatFinding(f);
}

TEST(LintScoping, OnlySrcPathsAreLinted) {
  const std::string code = "#include <mutex>\nstd::mutex a;\n";
  Linter linter;
  std::vector<Finding> findings;
  linter.LintFile("tools/lint/fixtures/l4_bad.cc", code, &findings);
  linter.LintFile("tests/some_test.cc", code, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(LintIndex, CollectsStatusAndResultFunctionNames) {
  const std::string code =
      "Status Persist();\n"
      "Result<std::vector<int>> Collect(int n);\n"
      "Status Engine::Flush() { return Status(); }\n"
      "Status s = NotAFunction;\n"
      "void Plain();\n";
  Linter linter;
  linter.IndexStatusFunctions("src/x.h", code);
  EXPECT_EQ(linter.status_functions(),
            (std::set<std::string>{"Persist", "Collect", "Flush"}));
}

// The clean-tree gate: the linter must report zero findings on the real
// repository. A finding here means either new code broke an invariant
// (fix the code or add a justified suppression) or a rule regressed into
// a false positive (fix the rule — the linter promises zero false
// positives on the tree).
TEST(LintTree, RealTreeIsClean) {
  auto findings = LintTree(NTADOC_REPO_ROOT);
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  for (const Finding& f : *findings) ADD_FAILURE() << FormatFinding(f);
}

}  // namespace
}  // namespace ntadoc::lint
