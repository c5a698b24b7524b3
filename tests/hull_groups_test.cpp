#include <gtest/gtest.h>

#include <random>

#include "core/hybrid_network.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "testkit/generators.hpp"
#include "testkit/rng.hpp"

namespace hybrid {
namespace {

TEST(HullGroups, PolygonIntersectionPredicate) {
  using geom::convexPolygonsIntersect;
  const geom::Polygon a({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const geom::Polygon b({{1, 1}, {3, 1}, {3, 3}, {1, 3}});   // overlaps a
  const geom::Polygon c({{5, 5}, {6, 5}, {6, 6}, {5, 6}});   // disjoint
  const geom::Polygon d({{0.5, 0.5}, {1.5, 0.5}, {1.0, 1.5}});  // inside a
  EXPECT_TRUE(convexPolygonsIntersect(a, b));
  EXPECT_FALSE(convexPolygonsIntersect(a, c));
  EXPECT_TRUE(convexPolygonsIntersect(a, d));
  EXPECT_TRUE(convexPolygonsIntersect(d, a));  // containment, either order
}

// A U-shape whose mouth swallows a small separate block: the two holes are
// disjoint, but the block's hull lies inside the U's hull.
scenario::Scenario interlockedScenario(unsigned seed = 51) {
  scenario::ScenarioParams p;
  p.width = p.height = 24.0;
  p.seed = seed;
  p.obstacles.push_back(scenario::uShapeObstacle({11.0, 11.0}, 10.0, 9.0, 1.6));
  p.obstacles.push_back(scenario::rectangleObstacle({9.5, 10.0}, {12.5, 12.5}));
  return scenario::makeScenario(p);
}

// The paper's §4 guarantees are conditional on pairwise-disjoint convex
// hulls; intersecting hulls are explicitly unsupported (named as future
// work in §7). The contract of this implementation for that case:
//  1. detection — convexHullsDisjoint() reports it, and its verdict agrees
//     with the pairwise convexPolygonsIntersect predicate up to the
//     documented boundary-contact difference (strict vs non-strict);
//  2. fallback — the default hull router still delivers every route on
//     valid LDel edges, with the protocol gaps surfaced through
//     RouteResult::fallbacks rather than hidden. (The bounding-box
//     abstraction, E21, is the competitive answer for this case.)
TEST(HullGroups, IntersectingHullsAreDetected) {
  const auto sc = interlockedScenario();
  core::HybridNetwork net(sc.points);
  ASSERT_FALSE(net.convexHullsDisjoint());

  // Not disjoint implies some pair intersects under the loose predicate
  // (the converse can fail only on exact boundary contact).
  EXPECT_TRUE(abstraction::anyHullsIntersect(net.abstractions()));
}

TEST(HullGroups, UnmergedRouterStillDeliversOnIntersectingHulls) {
  const auto sc = interlockedScenario();
  core::HybridNetwork net(sc.points);
  ASSERT_FALSE(net.convexHullsDisjoint());

  // Plain §4 hull router: outside its supported regime, but the delivery
  // guarantee must hold — that is the documented fallback.
  auto rng = testkit::loggedRng("hull-groups-unmerged-fallback", 4);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  int fallbacks = 0;
  for (int it = 0; it < 60; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    const auto r = net.route(s, t);
    ASSERT_TRUE(r.delivered) << s << " -> " << t;
    ASSERT_FALSE(r.path.empty());
    EXPECT_EQ(r.path.front(), s);
    EXPECT_EQ(r.path.back(), t);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      ASSERT_TRUE(net.ldel().hasEdge(r.path[i], r.path[i + 1]));
    }
    fallbacks += r.fallbacks;
  }
  // No competitive-ratio assertion here on purpose: the paper makes no
  // stretch promise when hulls intersect. Fallback counts are informative
  // only; what is load-bearing is delivery on valid edges.
  SUCCEED() << "fallbacks across 60 routes: " << fallbacks;
}

TEST(HullGroups, TestkitIntersectGeneratorHitsTheUnsupportedCase) {
  // The fuzzing generator dedicated to this case must actually produce
  // intersecting hulls (for at least some seeds), so the fuzzer keeps
  // exercising the fallback path.
  const auto* gen = testkit::findGenerator("hull_intersect");
  ASSERT_NE(gen, nullptr);
  int intersecting = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto s = gen->make(seed);
    core::HybridNetwork net(s.points, s.radius);
    if (!net.convexHullsDisjoint()) ++intersecting;
  }
  EXPECT_GE(intersecting, 1);
}

}  // namespace
}  // namespace hybrid
