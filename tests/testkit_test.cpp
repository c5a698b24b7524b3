#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "testkit/corpus.hpp"
#include "testkit/generators.hpp"
#include "testkit/harness.hpp"
#include "testkit/oracles.hpp"
#include "testkit/rng.hpp"
#include "testkit/shrink.hpp"

namespace {

using namespace hybrid;
using namespace hybrid::testkit;

/// Seed/trial budget for the injected-bug acceptance test, chosen so the
/// drop-overlay-waypoint defect fires within the first few trials and the
/// failing scenario shrinks quickly. If the generators ever change, re-pick
/// with: fuzz_router --inject-bug drop-overlay-waypoint --trials 8 --seed S
constexpr std::uint64_t kInjectAcceptanceSeed = 5;
constexpr int kInjectAcceptanceTrials = 8;

/// Unique scratch directory under the build tree, wiped per test.
std::filesystem::path scratchDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "hybrid-testkit" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Testkit, SplitMixAndDeriveSeedAreStable) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  EXPECT_EQ(first, 0xE220A8397B1DCDAFull);  // reference vector of splitmix64(0)

  // Different salts give independent-looking streams; same inputs repeat.
  const std::uint64_t a = deriveSeed(42, 0);
  const std::uint64_t b = deriveSeed(42, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, deriveSeed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 100; ++t) seen.insert(deriveSeed(7, t));
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Testkit, LoggedRngIsDeterministic) {
  auto a = loggedRng("testkit-self-check", 123);
  auto b = loggedRng("testkit-self-check", 123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), b());
}

TEST(Testkit, GeneratorsAreDeterministicAndWellFormed) {
  for (const auto& g : generators()) {
    SCOPED_TRACE(g.name);
    const auto s1 = g.make(99);
    const auto s2 = g.make(99);
    ASSERT_EQ(s1.points.size(), s2.points.size());
    for (std::size_t i = 0; i < s1.points.size(); ++i) {
      EXPECT_EQ(s1.points[i].x, s2.points[i].x);
      EXPECT_EQ(s1.points[i].y, s2.points[i].y);
    }
    EXPECT_GE(s1.points.size(), 4u);
    EXPECT_GT(s1.radius, 0.0);
    // A different seed must actually change the deployment.
    const auto s3 = g.make(100);
    const bool differs = s1.points.size() != s3.points.size() ||
                         s1.points[0].x != s3.points[0].x ||
                         s1.points[0].y != s3.points[0].y;
    EXPECT_TRUE(differs);
    EXPECT_NE(findGenerator(g.name), nullptr);
  }
  EXPECT_EQ(findGenerator("no-such-generator"), nullptr);
}

TEST(Testkit, CorpusJsonRoundTripsBitExactly) {
  CorpusCase c;
  c.generator = "hull_tangent";
  c.seed = 0xDEADBEEFCAFEBABEull;
  c.oracle = "overlay_parity";
  c.note = "line1\nwith \"quotes\" and \\backslash\t.";
  c.scenario = makeCase(5, 7).scenario;

  const auto parsed = fromJson(toJson(c));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->generator, c.generator);
  EXPECT_EQ(parsed->seed, c.seed);
  EXPECT_EQ(parsed->oracle, c.oracle);
  EXPECT_EQ(parsed->note, c.note);
  EXPECT_EQ(parsed->scenario.radius, c.scenario.radius);
  ASSERT_EQ(parsed->scenario.points.size(), c.scenario.points.size());
  for (std::size_t i = 0; i < c.scenario.points.size(); ++i) {
    EXPECT_EQ(parsed->scenario.points[i].x, c.scenario.points[i].x);
    EXPECT_EQ(parsed->scenario.points[i].y, c.scenario.points[i].y);
  }
  ASSERT_EQ(parsed->scenario.obstacles.size(), c.scenario.obstacles.size());
  for (std::size_t i = 0; i < c.scenario.obstacles.size(); ++i) {
    ASSERT_EQ(parsed->scenario.obstacles[i].size(), c.scenario.obstacles[i].size());
  }

  // Save/load through a real file too.
  const auto dir = scratchDir("roundtrip");
  const std::string path = (dir / "case.json").string();
  ASSERT_TRUE(saveCase(path, c));
  const auto loaded = loadCase(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(toJson(*loaded), toJson(c));
  EXPECT_EQ(listCorpus(dir.string()).size(), 1u);
}

TEST(Testkit, CorpusRejectsMalformedInput) {
  EXPECT_FALSE(fromJson("").has_value());
  EXPECT_FALSE(fromJson("{}").has_value());  // no points
  EXPECT_FALSE(fromJson("{\"radius\": 0, \"points\": [[1, 2]]}").has_value());
  EXPECT_FALSE(fromJson("{\"radius\": -1, \"points\": [[1, 2]]}").has_value());
  EXPECT_FALSE(fromJson("{\"radius\": 1, \"points\": [[1,").has_value());
  EXPECT_FALSE(loadCase("/nonexistent/path/case.json").has_value());
  EXPECT_TRUE(listCorpus("/nonexistent/dir").empty());
  // Unknown keys are tolerated (forward compatibility), whatever their value.
  for (const char* value : {"{\"x\": [1, \"y\"]}", "true", "null", "[false, 1]"}) {
    const auto c = fromJson(std::string("{\"radius\": 1.0, \"points\": [[0,0],[1,0]], ") +
                            "\"future_key\": " + value + "}");
    ASSERT_TRUE(c.has_value()) << value;
    EXPECT_EQ(c->scenario.points.size(), 2u);
  }
}

TEST(Testkit, ShrinkerFindsSmallFailingScenario) {
  // Synthetic "bug": fails whenever the scenario still has >= 20 nodes.
  // The shrinker should walk a ~500-node deployment down to a scenario
  // near that threshold without ever accepting a passing candidate.
  const auto big = makeCase(0, 11).scenario;
  ASSERT_GE(big.points.size(), 60u);
  int evals = 0;
  const auto fails = [&](const scenario::Scenario& s) {
    ++evals;
    return s.points.size() >= 20;
  };
  ShrinkOptions opts;
  opts.minNodes = 8;
  const auto r = shrinkScenario(big, fails, opts);
  EXPECT_TRUE(r.shrunk);
  EXPECT_GE(r.scenario.points.size(), 20u);
  EXPECT_LE(r.scenario.points.size(), 40u);
  EXPECT_EQ(r.evaluations, evals);
  EXPECT_LE(evals, opts.maxEvaluations);

  // Deterministic: same input, same result.
  const auto r2 = shrinkScenario(big, [](const scenario::Scenario& s) {
    return s.points.size() >= 20;
  }, opts);
  EXPECT_EQ(r2.scenario.points.size(), r.scenario.points.size());
}

TEST(Testkit, OracleRegistryAndBugNamesRoundTrip) {
  EXPECT_EQ(oracles().size(), 12u);
  for (const auto& o : oracles()) EXPECT_EQ(findOracle(o.name), &o);
  EXPECT_EQ(findOracle("nope"), nullptr);
  for (const InjectedBug b :
       {InjectedBug::None, InjectedBug::DropOverlayWaypoint,
        InjectedBug::InflateOverlayDistance, InjectedBug::SwapDeliveryOrder,
        InjectedBug::DropLabelHub, InjectedBug::WrongNextHop,
        InjectedBug::DropBBoxCorner}) {
    EXPECT_EQ(parseInjectedBug(bugName(b)), b);
  }
  EXPECT_EQ(parseInjectedBug("garbage"), InjectedBug::None);
}

TEST(Testkit, CleanCasesPassAllOraclesAndSummaryIsThreadInvariant) {
  FuzzOptions opts;
  opts.seed = 3;
  opts.trials = 9;  // one case per generator
  opts.threads = 1;
  const auto s1 = runFuzz(opts);
  EXPECT_TRUE(s1.allPassed()) << s1.report();
  opts.threads = 4;
  const auto s4 = runFuzz(opts);
  EXPECT_EQ(s1.report(), s4.report());
}

// The end-to-end acceptance path: a deliberately planted routing bug must
// be caught by an oracle, shrunk to a small scenario, recorded as JSON,
// and the recorded case must replay clean once the bug is gone.
TEST(Testkit, InjectedBugIsCaughtShrunkAndRecorded) {
  const auto dir = scratchDir("inject");
  FuzzOptions opts;
  opts.seed = kInjectAcceptanceSeed;
  opts.trials = kInjectAcceptanceTrials;
  opts.threads = 2;
  opts.bug = InjectedBug::DropOverlayWaypoint;
  opts.corpusDir = dir.string();
  const auto summary = runFuzz(opts);
  ASSERT_FALSE(summary.failures.empty()) << summary.report();

  bool sawSmallReplayable = false;
  for (const auto& f : summary.failures) {
    EXPECT_EQ(f.oracle, "overlay_parity");
    EXPECT_LE(f.shrunkNodes, f.originalNodes);
    if (f.corpusPath.empty() || f.shrunkNodes > 25) continue;
    const auto c = loadCase(f.corpusPath);
    ASSERT_TRUE(c.has_value()) << f.corpusPath;
    EXPECT_EQ(c->oracle, "overlay_parity");
    EXPECT_EQ(c->scenario.points.size(), f.shrunkNodes);
    // Replay WITHOUT the injected bug: the recorded case pins the current
    // (correct) behavior, so it must pass every oracle.
    EXPECT_EQ(replayCase(*c, 2), "") << f.corpusPath;
    sawSmallReplayable = true;
  }
  EXPECT_TRUE(sawSmallReplayable)
      << "no failure shrank to <= 25 nodes with a corpus file:\n"
      << summary.report();
}

}  // namespace
