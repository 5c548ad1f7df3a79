// Tests for tools/lint/sarif: JSON escaping, the baseline round-trip and
// its context-keyed matching, and the SARIF 2.1.0 document shape -- plus
// the binary's --write-baseline / --baseline / --sarif plumbing end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "run_lint.hpp"
#include "sarif.hpp"

namespace eroof::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(EROOF_LINT_FIXTURES) + "/" + name;
}

Finding finding(const std::string& file, int line, const std::string& rule,
                const std::string& message, const std::string& context) {
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = message;
  f.context = context;
  return f;
}

// ---------------------------------------------------------------------------
// JSON escaping
// ---------------------------------------------------------------------------

TEST(LintSarif, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("plain"), "plain");
}

// ---------------------------------------------------------------------------
// Baseline round-trip and matching semantics
// ---------------------------------------------------------------------------

TEST(LintBaseline, RoundTripsThroughWriteAndParse) {
  const std::vector<Finding> findings = {
      finding("src/a.cpp", 10, "hot-alloc", "m", "v.push_back(1);"),
      finding("src/b.cpp", 3, "relaxed-atomic", "m",
              "x.load(std::memory_order_relaxed);"),
  };
  Baseline base;
  ASSERT_TRUE(parse_baseline(write_baseline(findings), base));
  ASSERT_EQ(base.entries.size(), 2u);
  EXPECT_TRUE(base.contains(findings[0]));
  EXPECT_TRUE(base.contains(findings[1]));
}

TEST(LintBaseline, MatchingIgnoresLineNumbersButNotContext) {
  Baseline base;
  ASSERT_TRUE(parse_baseline(
      write_baseline(
          {finding("src/a.cpp", 10, "hot-alloc", "m", "v.push_back(1);")}),
      base));
  // Unrelated edits shift the line: still baselined.
  EXPECT_TRUE(base.contains(
      finding("src/a.cpp", 99, "hot-alloc", "m", "v.push_back(1);")));
  // The offending line itself changed: the entry retires.
  EXPECT_FALSE(base.contains(
      finding("src/a.cpp", 10, "hot-alloc", "m", "v.push_back(2);")));
  // Same context under a different rule or file never matches.
  EXPECT_FALSE(base.contains(
      finding("src/a.cpp", 10, "hot-lock", "m", "v.push_back(1);")));
  EXPECT_FALSE(base.contains(
      finding("src/b.cpp", 10, "hot-alloc", "m", "v.push_back(1);")));
}

TEST(LintBaseline, SuppressedFindingsAreNotRecorded) {
  Finding f = finding("src/a.cpp", 1, "hot-alloc", "m", "ctx");
  f.suppressed = true;
  Baseline base;
  ASSERT_TRUE(parse_baseline(write_baseline({f}), base));
  EXPECT_TRUE(base.entries.empty());
}

TEST(LintBaseline, ApplyMarksOnlyMatchedFindings) {
  std::vector<Finding> findings = {
      finding("src/a.cpp", 10, "hot-alloc", "m", "grandfathered();"),
      finding("src/a.cpp", 20, "hot-alloc", "m", "fresh_violation();"),
  };
  Baseline base;
  base.entries.push_back({"src/a.cpp", "hot-alloc", "grandfathered();"});
  std::vector<bool> baselined;
  EXPECT_EQ(apply_baseline(findings, base, baselined), 1);
  ASSERT_EQ(baselined.size(), 2u);
  EXPECT_TRUE(baselined[0]);
  EXPECT_FALSE(baselined[1]);
}

TEST(LintBaseline, MalformedInputIsRejected) {
  Baseline base;
  EXPECT_FALSE(parse_baseline("{\"version\":\"1\",\"entries\":[{", base));
  EXPECT_FALSE(parse_baseline("not json at all", base));
  EXPECT_TRUE(parse_baseline("{\"version\":\"1\",\"entries\":[]}", base));
}

// ---------------------------------------------------------------------------
// SARIF document shape
// ---------------------------------------------------------------------------

TEST(LintSarif, EmitsDriverRuleTableAndResults) {
  const std::vector<Finding> findings = {
      finding("src/a.cpp", 10, "hot-alloc", "heap allocation", "ctx")};
  const std::string doc = write_sarif(findings, {}, {});
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"eroof-lint\""), std::string::npos);
  // Every registered rule appears in the driver's rule table.
  for (const auto& id : rule_ids())
    EXPECT_NE(doc.find("\"id\": \"" + id + "\""), std::string::npos) << id;
  EXPECT_NE(doc.find("\"ruleId\": \"hot-alloc\""), std::string::npos);
  EXPECT_NE(doc.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(doc.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\": 10"), std::string::npos);
}

TEST(LintSarif, SuppressionKindsDistinguishInSourceFromBaseline) {
  Finding allowed = finding("a.cpp", 1, "hot-alloc", "m", "ctx");
  allowed.suppressed = true;
  const Finding grandfathered = finding("a.cpp", 2, "hot-lock", "m", "ctx2");
  const std::string doc =
      write_sarif({allowed, grandfathered}, {false, true}, {});
  EXPECT_NE(doc.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"external\""), std::string::npos);
}

TEST(LintSarif, NotesBecomeNoteLevelResults) {
  const std::string doc =
      write_sarif({}, {}, {Note{"a.cpp", 7, "conservative remark"}});
  EXPECT_NE(doc.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(doc.find("conservative remark"), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\": 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The binary: baseline and SARIF plumbing end to end
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(LintSarifBinary, WriteBaselineThenBaselineGatesToZero) {
  const std::string base_path =
      ::testing::TempDir() + "eroof_lint_baseline.json";
  // chain_hot.cpp carries exactly one transitive violation.
  auto r = run_lint("--write-baseline " + base_path + " " +
                    fixture("chain_hot.cpp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(read_file(base_path).find("\"rule\": \"hot-alloc\""),
            std::string::npos);

  r = run_lint("--baseline " + base_path + " " + fixture("chain_hot.cpp"));
  EXPECT_EQ(r.exit_code, 0);
  // Baselined findings are suppressed from stdout entirely.
  EXPECT_EQ(r.out.find("hot-alloc:"), std::string::npos);
  std::remove(base_path.c_str());
}

TEST(LintSarifBinary, BaselineDoesNotHideNewViolations) {
  const std::string base_path =
      ::testing::TempDir() + "eroof_lint_baseline2.json";
  auto r = run_lint("--write-baseline " + base_path + " " +
                    fixture("chain_hot.cpp"));
  EXPECT_EQ(r.exit_code, 0);
  // A different file's findings are not covered by chain_hot's baseline.
  r = run_lint("--baseline " + base_path + " " +
               fixture("bad_concurrency.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  std::remove(base_path.c_str());
}

TEST(LintSarifBinary, MalformedBaselineExitsTwo) {
  const std::string base_path = ::testing::TempDir() + "eroof_lint_bad.json";
  std::ofstream(base_path) << "{\"entries\":[{";
  const auto r =
      run_lint("--baseline " + base_path + " " + fixture("clean.cpp"));
  EXPECT_EQ(r.exit_code, 2);
  std::remove(base_path.c_str());
}

TEST(LintSarifBinary, SarifFileIsWrittenAlongsideTheGate) {
  const std::string sarif_path = ::testing::TempDir() + "eroof_lint.sarif";
  const auto r =
      run_lint("--sarif " + sarif_path + " " + fixture("bad_concurrency.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  const std::string doc = read_file(sarif_path);
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\": \"conc-detached-thread\""),
            std::string::npos);
  std::remove(sarif_path.c_str());
}

}  // namespace
}  // namespace eroof::lint
