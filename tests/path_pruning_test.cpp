#include <gtest/gtest.h>

#include <random>

#include "core/hybrid_network.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

TEST(PathPruning, NeverLongerAlwaysValid) {
  scenario::ScenarioParams p;
  p.width = p.height = 18.0;
  p.seed = 55;
  p.obstacles.push_back(scenario::regularPolygonObstacle({9, 9}, 2.8, 6));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  auto plain = net.makeRouter({.prunePaths = false});
  auto pruned = net.makeRouter({.prunePaths = true});

  std::mt19937 rng(1);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  double sumPlain = 0.0;
  double sumPruned = 0.0;
  for (int it = 0; it < 80; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    const auto a = plain->route(s, t);
    const auto b = pruned->route(s, t);
    ASSERT_TRUE(a.delivered);
    ASSERT_TRUE(b.delivered);
    // Pruned path: still a valid hop sequence from s to t...
    ASSERT_EQ(b.path.front(), s);
    ASSERT_EQ(b.path.back(), t);
    for (std::size_t i = 0; i + 1 < b.path.size(); ++i) {
      ASSERT_TRUE(net.ldel().hasEdge(b.path[i], b.path[i + 1]));
    }
    // ...with no more hops and no greater length.
    EXPECT_LE(b.path.size(), a.path.size());
    EXPECT_LE(net.ldel().pathLength(b.path), net.ldel().pathLength(a.path) + 1e-9);
    sumPlain += net.stretch(a, s, t);
    sumPruned += net.stretch(b, s, t);
  }
  EXPECT_LE(sumPruned, sumPlain + 1e-9);
}

TEST(PathPruning, ShortcutsDetours) {
  // A route that zig-zags over a path graph collapses to the direct line.
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({i * 0.5, 0.0});
  core::HybridNetwork net(pts);
  auto pruned = net.makeRouter({.prunePaths = true});
  const auto r = pruned->route(0, 9);
  ASSERT_TRUE(r.delivered);
  // Nodes are 0.5 apart with unit radius: pruning keeps every other node.
  EXPECT_LE(r.path.size(), 6u);
}

}  // namespace
}  // namespace hybrid
