#include <gtest/gtest.h>

#include "core/hybrid_network.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid::core {
namespace {

TEST(HybridNetwork, StretchSemantics) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(200, 71));
  HybridNetwork net(sc.points);
  // Undelivered routes have infinite stretch.
  routing::RouteResult lost;
  lost.path = {0};
  lost.delivered = false;
  EXPECT_TRUE(std::isinf(net.stretch(lost, 0, 1)));
  // Self routes have stretch 1.
  const auto self = net.route(3, 3);
  EXPECT_DOUBLE_EQ(net.stretch(self, 3, 3), 1.0);
  // A delivered route is never shorter than the optimum.
  const auto r = net.route(0, static_cast<int>(sc.points.size()) - 1);
  ASSERT_TRUE(r.delivered);
  EXPECT_GE(net.stretch(r, 0, static_cast<int>(sc.points.size()) - 1), 1.0 - 1e-12);
}

TEST(HybridNetwork, CustomRadiusScalesEverything) {
  // Same layout at double scale with double radius: identical topology.
  auto sc = scenario::makeScenario(scenario::paramsForNodeCount(200, 72));
  HybridNetwork base(sc.points, 1.0);
  std::vector<geom::Vec2> scaled;
  for (const auto& p : sc.points) scaled.push_back(p * 2.0);
  HybridNetwork twice(scaled, 2.0);
  EXPECT_EQ(base.udg().numEdges(), twice.udg().numEdges());
  EXPECT_EQ(base.ldel().numEdges(), twice.ldel().numEdges());
  EXPECT_EQ(base.holes().holes.size(), twice.holes().holes.size());
}

TEST(HybridNetwork, QudgConstructorDegradesGracefully) {
  scenario::ScenarioParams p;
  p.width = p.height = 12.0;
  p.seed = 73;
  p.spacing = 0.45;
  const auto sc = scenario::makeScenario(p);
  delaunay::LDelOptions opts;
  opts.reliableRadius = 0.7;
  opts.dropProbability = 0.4;
  HybridNetwork qudg(sc.points, opts);
  HybridNetwork plain(sc.points);
  EXPECT_LT(qudg.udg().numEdges(), plain.udg().numEdges());
  // The QUDG keeps all reliable (short) links.
  for (const auto& [u, v] : plain.udg().edges()) {
    if (plain.udg().edgeLength(u, v) <= opts.reliableRadius) {
      EXPECT_TRUE(qudg.udg().hasEdge(u, v));
    }
  }
  // Determinism: same seed, same graph.
  HybridNetwork again(sc.points, opts);
  EXPECT_EQ(qudg.udg().numEdges(), again.udg().numEdges());
}

TEST(HybridNetwork, MakeRouterIsIndependentOfDefault) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(250, 74));
  HybridNetwork net(sc.points);
  auto custom = net.makeRouter(
      {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Visibility});
  const auto a = net.route(1, 200);
  const auto b = custom->route(1, 200);
  EXPECT_TRUE(a.delivered);
  EXPECT_TRUE(b.delivered);
  // Both valid; they may differ, but both end at the target.
  EXPECT_EQ(a.path.back(), 200);
  EXPECT_EQ(b.path.back(), 200);
}

TEST(HybridNetwork, StorageReportCoversEveryNode) {
  scenario::ScenarioParams p;
  p.width = p.height = 14.0;
  p.seed = 75;
  p.obstacles.push_back(scenario::regularPolygonObstacle({7, 7}, 2.2, 7));
  HybridNetwork net(scenario::makeScenario(p).points);
  const auto rep = net.storageReport();
  ASSERT_EQ(rep.perNode.size(), net.ldel().numNodes());
  for (long v : rep.perNode) EXPECT_GE(v, 1);
  EXPECT_GE(rep.totalHullNodes, 3);
}

}  // namespace
}  // namespace hybrid::core
