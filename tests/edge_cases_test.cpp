// Degenerate and tiny inputs across the whole stack: the library must not
// crash or misbehave on empty, singleton, collinear or minimal networks.

#include <gtest/gtest.h>

#include "core/hybrid_network.hpp"
#include "delaunay/triangulation.hpp"
#include "delaunay/udg.hpp"
#include "protocols/ring_pipeline.hpp"
#include "routing/overlay_graph.hpp"
#include "scenario/generator.hpp"

namespace hybrid {
namespace {

TEST(EdgeCases, EmptyAndSingletonNetworks) {
  core::HybridNetwork empty({});
  EXPECT_EQ(empty.holes().holes.size(), 0u);
  EXPECT_TRUE(empty.convexHullsDisjoint());

  core::HybridNetwork one({{0, 0}});
  EXPECT_EQ(one.udg().numNodes(), 1u);
  EXPECT_TRUE(one.route(0, 0).delivered);
}

TEST(EdgeCases, TwoNodes) {
  core::HybridNetwork net({{0, 0}, {0.5, 0}});
  const auto r = net.route(0, 1);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops(), 1u);
  EXPECT_DOUBLE_EQ(net.stretch(r, 0, 1), 1.0);
}

TEST(EdgeCases, CollinearChain) {
  // Violates the non-pathological assumption (3 on a line); the pipeline
  // must still route along the chain.
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 12; ++i) pts.push_back({i * 0.6, 0.0});
  core::HybridNetwork net(pts);
  // The chain's walk has zero area: it bounds no hole.
  EXPECT_TRUE(net.holes().holes.empty());
  EXPECT_EQ(net.holes().outerBoundary.size(), 22u);
  const auto r = net.route(0, 11);
  ASSERT_TRUE(r.delivered);
  EXPECT_NEAR(net.stretch(r, 0, 11), 1.0, 1e-9);
}

TEST(EdgeCases, DisconnectedTargetsAreReportedNotCrashed) {
  core::HybridNetwork net({{0, 0}, {0.4, 0}, {10, 10}, {10.4, 10}});
  const auto r = net.route(0, 3);
  EXPECT_FALSE(r.delivered);
  EXPECT_TRUE(std::isinf(net.stretch(r, 0, 3)));
}

TEST(EdgeCases, MinimalTriangleAndSquare) {
  core::HybridNetwork tri({{0, 0}, {0.6, 0}, {0.3, 0.5}});
  EXPECT_TRUE(tri.route(0, 2).delivered);
  EXPECT_TRUE(tri.ldel().isPlanarEmbedding());

  core::HybridNetwork sq({{0, 0}, {0.6, 0}, {0.6, 0.6}, {0, 0.6}});
  EXPECT_TRUE(sq.route(0, 2).delivered);
}

TEST(EdgeCases, DegenerateDelaunayInputs) {
  // All points on one line: no triangles, but no crash.
  const delaunay::DelaunayTriangulation flat({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  EXPECT_TRUE(flat.triangles().empty() || flat.toGraph().isPlanarEmbedding());
}

TEST(EdgeCases, OverlayGraphWithoutSites) {
  // A hole-free network: the overlay has no sites; waypoint queries still
  // answer (empty list when endpoints see each other, which they do).
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(120, 96));
  core::HybridNetwork net(sc.points);
  const auto& overlay = net.router().overlay();
  const auto route = overlay.waypointsWithDistance({1.0, 1.0}, {3.0, 3.0});
  ASSERT_TRUE(route.reachable);
  EXPECT_TRUE(route.waypoints.empty());
  EXPECT_NEAR(route.distance, geom::dist({1, 1}, {3, 3}), 1e-9);
}

TEST(EdgeCases, RingPipelineIgnoresTinyRings) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(120, 97));
  const auto udg = delaunay::buildUnitDiskGraph(sc.points, 1.0);
  sim::Simulator s(udg);
  protocols::RingPipeline pipeline(s, {{{1, 2}, {}, {3}}});
  const auto results = pipeline.run();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_EQ(r.leader, -1);  // nothing to elect
}

TEST(EdgeCases, RouteBetweenIdenticalPositionsForbidden) {
  // Duplicate positions are a documented precondition violation for the
  // Delaunay substrate; the generator never produces them. Verify the
  // generator's dedup path on a crafted near-duplicate set instead.
  std::vector<geom::Vec2> pts{{0, 0}, {0.3, 0}, {0.3, 1e-12}, {0.6, 0}};
  core::HybridNetwork net(pts);  // distinct doubles: fine
  EXPECT_TRUE(net.route(0, 3).delivered);
}

}  // namespace
}  // namespace hybrid
