// Bounding-box hole abstraction (PR 9): structural invariants of
// buildBBoxOverlay, AbstractionMode plumbing, the Auto switchover, and the
// headline guarantee the mode exists for — intersecting-hull scenarios
// (which the convex-hull router only serves through A* fallbacks) route
// with zero fallbacks under BBox/Auto.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "abstraction/bbox_overlay.hpp"
#include "core/hybrid_network.hpp"
#include "testkit/corpus.hpp"
#include "testkit/generators.hpp"
#include "testkit/harness.hpp"
#include "testkit/oracles.hpp"

#ifndef HYBRID_CORPUS_DIR
#error "HYBRID_CORPUS_DIR must point at tests/corpus (set in tests/CMakeLists.txt)"
#endif

namespace {

using namespace hybrid;
using namespace hybrid::testkit;

scenario::Scenario makeScenario(const char* generator, std::uint64_t seed) {
  const auto* g = findGenerator(generator);
  EXPECT_NE(g, nullptr) << generator;
  return g->make(seed);
}

routing::HybridOptions bboxOptions(routing::EdgeMode edges,
                                   routing::AbstractionMode mode) {
  routing::HybridOptions opts{.sites = routing::SiteMode::HullNodes, .edges = edges};
  opts.abstraction = mode;
  return opts;
}

TEST(BBoxOverlay, AbstractionModeNamesRoundTrip) {
  for (const routing::AbstractionMode m :
       {routing::AbstractionMode::Hulls, routing::AbstractionMode::BBox,
        routing::AbstractionMode::Auto}) {
    const auto parsed = routing::parseAbstractionMode(routing::abstractionModeName(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(std::string(routing::abstractionModeName(routing::AbstractionMode::BBox)),
            "bbox");
  EXPECT_FALSE(routing::parseAbstractionMode("convex").has_value());
  EXPECT_FALSE(routing::parseAbstractionMode("").has_value());
}

TEST(BBoxOverlay, BuildInvariantsAndDeterminism) {
  const auto sc = makeScenario("hull_intersect", 2);
  core::HybridNetwork net(sc.points, sc.radius);
  const auto groups = abstraction::buildBBoxOverlay(net.ldel(), net.holes(),
                                                    net.abstractions());
  ASSERT_FALSE(groups.empty());

  std::vector<int> covered;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto& g = groups[i];
    ASSERT_EQ(g.holeSites.size(), g.members.size());
    // Merged boxes are pairwise disjoint by construction — that is the
    // property that restores the paper's disjointness precondition.
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      EXPECT_FALSE(g.box.intersects(groups[j].box)) << i << " vs " << j;
    }
    for (const auto& hs : g.holeSites) {
      covered.push_back(hs.abstraction);
      const auto& a = net.abstractions()[static_cast<std::size_t>(hs.abstraction)];
      const auto& ring = net.holes().holes[static_cast<std::size_t>(a.holeIndex)].ring;
      EXPECT_FALSE(hs.sites.empty());
      EXPECT_LE(hs.sites.size(), 8u);  // corner/projection rule: O(1) sites
      for (const graph::NodeId v : hs.sites) {
        EXPECT_NE(std::find(ring.begin(), ring.end(), v), ring.end());
        EXPECT_TRUE(g.box.contains(net.ldel().position(v)));
      }
      for (const graph::NodeId v : ring) {
        EXPECT_TRUE(g.box.contains(net.ldel().position(v)));
      }
    }
  }
  // Every abstraction lands in exactly one group.
  std::sort(covered.begin(), covered.end());
  ASSERT_EQ(covered.size(), net.abstractions().size());
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_EQ(covered[i], static_cast<int>(i));
  }

  // Bit-identical rebuild: the abstraction is a pure function of the graph.
  const auto again = abstraction::buildBBoxOverlay(net.ldel(), net.holes(),
                                                   net.abstractions());
  ASSERT_EQ(again.size(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(again[i].members, groups[i].members);
    EXPECT_EQ(again[i].box.lo.x, groups[i].box.lo.x);
    EXPECT_EQ(again[i].box.hi.y, groups[i].box.hi.y);
    ASSERT_EQ(again[i].holeSites.size(), groups[i].holeSites.size());
    for (std::size_t k = 0; k < groups[i].holeSites.size(); ++k) {
      EXPECT_EQ(again[i].holeSites[k].sites, groups[i].holeSites[k].sites);
    }
  }
}

TEST(BBoxOverlay, AutoEngagesBBoxExactlyWhenHullsIntersect) {
  // The switchover keys off the pairwise hull scan (tangency included),
  // not the strict-containment disjointness predicate.
  for (const char* gen : {"hull_intersect", "hull_chain", "hull_nest"}) {
    SCOPED_TRACE(gen);
    const auto sc = makeScenario(gen, 4);
    core::HybridNetwork net(sc.points, sc.radius);
    ASSERT_TRUE(abstraction::anyHullsIntersect(net.abstractions()))
        << gen << " generator no longer interlocks hulls";
    const auto router = net.makeRouter(
        bboxOptions(routing::EdgeMode::Visibility, routing::AbstractionMode::Auto));
    EXPECT_TRUE(router->usesBBox());
    EXPECT_NE(router->name().find("+bbox"), std::string::npos);
  }
}

TEST(BBoxOverlay, AutoMatchesHullsRouteForRouteOnDisjointScenarios) {
  int compared = 0;
  for (const std::uint64_t seed : {1ull, 3ull, 4ull, 5ull}) {
    const auto sc = makeScenario("cocircular", seed);
    CaseContext ctx(sc, seed);
    const auto& net = ctx.net();
    // Auto would (correctly) pick bbox here.
    if (abstraction::anyHullsIntersect(net.abstractions())) continue;
    for (const routing::EdgeMode em :
         {routing::EdgeMode::Visibility, routing::EdgeMode::Delaunay}) {
      const auto hulls = net.makeRouter(bboxOptions(em, routing::AbstractionMode::Hulls));
      const auto autoR = net.makeRouter(bboxOptions(em, routing::AbstractionMode::Auto));
      EXPECT_FALSE(autoR->usesBBox());
      for (const auto& [s, t] : ctx.pairs()) {
        const auto rh = hulls->route(s, t);
        const auto ra = autoR->route(s, t);
        EXPECT_EQ(rh.delivered, ra.delivered);
        EXPECT_EQ(rh.path, ra.path) << s << "->" << t;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0) << "no disjoint-hull scenario found to compare on";
}

// Acceptance: the intersecting-hull scenarios the convex-hull router can
// only serve through A* splices route with ZERO fallbacks once the box
// abstraction is selected (explicitly or via Auto). Runs on every recorded
// hull_intersect corpus case plus fresh full-size deployments.
TEST(BBoxOverlay, HullIntersectRoutesWithoutFallbacksUnderBBoxAndAuto) {
  std::vector<std::pair<std::string, scenario::Scenario>> cases;
  for (const auto& path : listCorpus(HYBRID_CORPUS_DIR)) {
    const auto c = loadCase(path);
    ASSERT_TRUE(c.has_value()) << path;
    if (c->generator == "hull_intersect") cases.emplace_back(path, c->scenario);
  }
  ASSERT_FALSE(cases.empty()) << "no hull_intersect cases in " << HYBRID_CORPUS_DIR;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    cases.emplace_back("hull_intersect/" + std::to_string(seed),
                       makeScenario("hull_intersect", seed));
  }

  for (const auto& [label, sc] : cases) {
    SCOPED_TRACE(label);
    CaseContext ctx(sc, 17);
    for (const routing::AbstractionMode mode :
         {routing::AbstractionMode::BBox, routing::AbstractionMode::Auto}) {
      for (const routing::EdgeMode em :
           {routing::EdgeMode::Visibility, routing::EdgeMode::Delaunay}) {
        const auto router = ctx.net().makeRouter(bboxOptions(em, mode));
        for (const auto& [s, t] : ctx.pairs()) {
          const auto r = router->route(s, t);
          EXPECT_TRUE(r.delivered) << s << "->" << t;
          EXPECT_EQ(r.fallbacks, 0)
              << routing::abstractionModeName(mode) << " edge mode "
              << static_cast<int>(em) << " pair " << s << "->" << t;
        }
      }
    }
  }
}

// End-to-end pipeline proof for the planted bbox defect: the corrupted
// site selection must be caught by bbox_parity, shrunk to a handful of
// nodes, recorded as JSON, and the record must replay clean without the
// bug. Seed/trials picked so the defect fires within 6 trials; re-pick
// with: fuzz_router --inject-bug drop-bbox-corner --trials 6 --seed S
TEST(BBoxOverlay, InjectedDropBBoxCornerIsCaughtShrunkAndRecorded) {
  const auto dir = std::filesystem::temp_directory_path() / "hybrid-testkit" / "bbox-inject";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FuzzOptions opts;
  opts.seed = 5;
  opts.trials = 6;
  opts.threads = 2;
  opts.bug = InjectedBug::DropBBoxCorner;
  opts.corpusDir = dir.string();
  const auto summary = runFuzz(opts);
  ASSERT_FALSE(summary.failures.empty()) << summary.report();

  bool sawSmallReplayable = false;
  for (const auto& f : summary.failures) {
    EXPECT_EQ(f.oracle, "bbox_parity");
    EXPECT_LE(f.shrunkNodes, f.originalNodes);
    if (f.corpusPath.empty() || f.shrunkNodes > 10) continue;
    const auto c = loadCase(f.corpusPath);
    ASSERT_TRUE(c.has_value()) << f.corpusPath;
    EXPECT_EQ(c->oracle, "bbox_parity");
    EXPECT_EQ(c->scenario.points.size(), f.shrunkNodes);
    EXPECT_EQ(replayCase(*c, 2), "") << f.corpusPath;
    sawSmallReplayable = true;
  }
  EXPECT_TRUE(sawSmallReplayable)
      << "no failure shrank to <= 10 nodes with a corpus file:\n"
      << summary.report();
}

}  // namespace
