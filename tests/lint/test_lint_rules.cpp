// Rule-by-rule self-test: every rule has one negative fixture (must fire,
// at the marked line) and one positive fixture (must stay silent). The
// fixtures are checked-in .fixture files — real programs with the wrong
// extension, so the real tree scan skips them by construction.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support.hpp"

namespace raptee::lint {
namespace {

using testing::count_rule;
using testing::has_finding;
using testing::line_of;
using testing::load_fixture;

std::vector<Finding> run(const std::string& rel_path, const std::string& source) {
  return lint_source(rel_path, source, Config{});
}

TEST(LintRules, WallClockFires) {
  const std::string source = load_fixture("wall_clock_bad.fixture");
  const std::vector<Finding> findings = run("src/sim/fixture.cpp", source);
  EXPECT_EQ(count_rule(findings, "no-wall-clock"), 2u);
  EXPECT_TRUE(has_finding(findings, "no-wall-clock",
                          line_of(source, "std::random_device")));
  EXPECT_TRUE(has_finding(findings, "no-wall-clock",
                          line_of(source, "steady_clock::now()")));
}

TEST(LintRules, WallClockCleanAndScoped) {
  const std::string good = load_fixture("wall_clock_good.fixture");
  EXPECT_TRUE(run("src/sim/fixture.cpp", good).empty());
  // The same violations are legal outside the deterministic dirs: the obs
  // profiling layer and the socket transport are allowlisted by path.
  const std::string bad = load_fixture("wall_clock_bad.fixture");
  EXPECT_EQ(count_rule(run("src/obs/fixture.cpp", bad), "no-wall-clock"), 0u);
  EXPECT_EQ(count_rule(run("src/net/fixture.cpp", bad), "no-wall-clock"), 0u);
}

TEST(LintRules, WallClockCoversEvtScheduler) {
  // src/evt is a deterministic dir: the event scheduler must never read the
  // host's clock — virtual time is its whole contract.
  const std::string bad = load_fixture("evt_clock_bad.fixture");
  const std::vector<Finding> findings = run("src/evt/fixture.cpp", bad);
  EXPECT_EQ(count_rule(findings, "no-wall-clock"), 2u);
  EXPECT_TRUE(has_finding(findings, "no-wall-clock",
                          line_of(bad, "system_clock::now()")));
  EXPECT_TRUE(has_finding(findings, "no-wall-clock", line_of(bad, "time(nullptr)")));
}

TEST(LintRules, WallClockEvtVirtualTimeIsClean) {
  const std::string good = load_fixture("evt_clock_good.fixture");
  EXPECT_TRUE(run("src/evt/fixture.cpp", good).empty());
}

TEST(LintRules, UnorderedIterationFires) {
  const std::string source = load_fixture("unordered_iter_bad.fixture");
  const std::vector<Finding> findings = run("src/net/fixture.cpp", source);
  EXPECT_EQ(count_rule(findings, "no-unordered-iteration"), 1u);
  EXPECT_TRUE(has_finding(findings, "no-unordered-iteration",
                          line_of(source, "for (const auto& [id, name]")));
}

TEST(LintRules, UnorderedIterationClean) {
  const std::string source = load_fixture("unordered_iter_good.fixture");
  EXPECT_TRUE(run("src/net/fixture.cpp", source).empty());
}

TEST(LintRules, PlainAssertFires) {
  const std::string source = load_fixture("plain_assert_bad.fixture");
  const std::vector<Finding> findings = run("src/core/fixture.cpp", source);
  EXPECT_EQ(count_rule(findings, "no-plain-assert"), 1u);
  EXPECT_TRUE(has_finding(findings, "no-plain-assert",
                          line_of(source, "assert(n % 2 == 0)")));
}

TEST(LintRules, PlainAssertClean) {
  const std::string source = load_fixture("plain_assert_good.fixture");
  EXPECT_TRUE(run("src/core/fixture.cpp", source).empty());
}

TEST(LintRules, MemoryOrderFires) {
  const std::string source = load_fixture("memory_order_bad.fixture");
  const std::vector<Finding> findings = run("src/exec/fixture.cpp", source);
  EXPECT_EQ(count_rule(findings, "explicit-memory-order"), 2u);
  EXPECT_TRUE(has_finding(findings, "explicit-memory-order",
                          line_of(source, "fetch_add(1)")));
  EXPECT_TRUE(has_finding(findings, "explicit-memory-order",
                          line_of(source, "running.load()")));
}

TEST(LintRules, MemoryOrderCleanAndTestExempt) {
  const std::string good = load_fixture("memory_order_good.fixture");
  EXPECT_TRUE(run("src/exec/fixture.cpp", good).empty());
  // Tests may lean on seq_cst defaults: the same bad source is clean when
  // linted under tests/.
  const std::string bad = load_fixture("memory_order_bad.fixture");
  EXPECT_EQ(count_rule(run("tests/exec/fixture.cpp", bad), "explicit-memory-order"),
            0u);
}

TEST(LintRules, CastAllowlistFires) {
  const std::string source = load_fixture("cast_bad.fixture");
  const std::vector<Finding> findings = run("src/gossip/fixture.cpp", source);
  EXPECT_EQ(count_rule(findings, "cast-allowlist"), 1u);
  EXPECT_TRUE(has_finding(findings, "cast-allowlist",
                          line_of(source, "reinterpret_cast<const Header*>")));
}

TEST(LintRules, CastAllowlistCleanAndAuditedFiles) {
  const std::string good = load_fixture("cast_good.fixture");
  EXPECT_TRUE(run("src/gossip/fixture.cpp", good).empty());
  // The audited syscall file may cast freely, no annotation needed.
  const std::string bad = load_fixture("cast_bad.fixture");
  EXPECT_EQ(count_rule(run("src/net/socket.cpp", bad), "cast-allowlist"), 0u);
}

TEST(LintRules, IostreamFires) {
  const std::string source = load_fixture("iostream_bad.fixture");
  const std::vector<Finding> findings = run("src/metrics/fixture.cpp", source);
  EXPECT_EQ(count_rule(findings, "no-iostream-in-lib"), 2u);
  EXPECT_TRUE(has_finding(findings, "no-iostream-in-lib",
                          line_of(source, "std::cout")));
  EXPECT_TRUE(has_finding(findings, "no-iostream-in-lib",
                          line_of(source, "std::fprintf")));
}

TEST(LintRules, IostreamCleanAndLibScoped) {
  const std::string good = load_fixture("iostream_good.fixture");
  EXPECT_TRUE(run("src/metrics/fixture.cpp", good).empty());
  // Benches, examples and tools are front-door binaries — stdout is their
  // product, the rule only polices src/.
  const std::string bad = load_fixture("iostream_bad.fixture");
  EXPECT_EQ(count_rule(run("bench/fixture.cpp", bad), "no-iostream-in-lib"), 0u);
  EXPECT_EQ(count_rule(run("tools/fixture.cpp", bad), "no-iostream-in-lib"), 0u);
}

TEST(LintRules, HeaderHygieneFires) {
  const std::string source = load_fixture("header_bad.fixture");
  const std::vector<Finding> findings = run("src/core/fixture.hpp", source);
  EXPECT_EQ(count_rule(findings, "header-hygiene"), 2u);
  EXPECT_TRUE(has_finding(findings, "header-hygiene", 1));  // missing pragma
  EXPECT_TRUE(has_finding(findings, "header-hygiene",
                          line_of(source, "using namespace std")));
}

TEST(LintRules, HeaderHygieneCleanAndCppExempt) {
  const std::string good = load_fixture("header_good.fixture");
  EXPECT_TRUE(run("src/core/fixture.hpp", good).empty());
  // The same content linted as a .cpp is exempt: translation units neither
  // need #pragma once nor leak using-directives into includers.
  const std::string bad = load_fixture("header_bad.fixture");
  EXPECT_EQ(count_rule(run("src/core/fixture.cpp", bad), "header-hygiene"), 0u);
}

TEST(LintRules, RuleCatalogIsStable) {
  EXPECT_TRUE(rule_exists("no-wall-clock"));
  EXPECT_TRUE(rule_exists("suppression-hygiene"));
  EXPECT_FALSE(rule_exists("no-such-rule"));
  EXPECT_EQ(rules().size(), 8u);
}

}  // namespace
}  // namespace raptee::lint
