#include <gtest/gtest.h>

#include <random>

#include "../bench/bench_util.hpp"
#include "core/hybrid_network.hpp"
#include "routing/overlay_graph.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid::routing {
namespace {

class OverlayFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::ScenarioParams p;
    p.width = p.height = 18.0;
    p.seed = 101;
    p.obstacles.push_back(scenario::rectangleObstacle({7.0, 7.0}, {11.0, 11.0}));
    sc_ = new scenario::Scenario(scenario::makeScenario(p));
    net_ = new core::HybridNetwork(sc_->points);
  }
  static void TearDownTestSuite() {
    delete net_;
    delete sc_;
  }
  static scenario::Scenario* sc_;
  static core::HybridNetwork* net_;
};

scenario::Scenario* OverlayFixture::sc_ = nullptr;
core::HybridNetwork* OverlayFixture::net_ = nullptr;

TEST_F(OverlayFixture, WaypointsRouteAroundTheBlock) {
  const auto& overlay = net_->router().overlay();
  // Endpoints on opposite sides of the square hole: the straight segment
  // is blocked, so waypoints must be non-empty hull corners.
  const auto route = overlay.waypointsWithDistance({4.0, 9.0}, {14.0, 9.0});
  ASSERT_TRUE(route.reachable);
  ASSERT_FALSE(route.waypoints.empty());
  for (graph::NodeId w : route.waypoints) {
    const auto pos = net_->ldel().position(w);
    // All waypoints are abstraction (hull) sites near the hole.
    EXPECT_GT(pos.x, 4.0);
    EXPECT_LT(pos.x, 14.0);
  }
}

TEST_F(OverlayFixture, OverlayDistanceBounds) {
  const auto& overlay = net_->router().overlay();
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> d(1.0, 17.0);
  const geom::VisibilityContext vis(net_->holes().holePolygons());
  for (int it = 0; it < 40; ++it) {
    const geom::Vec2 a{d(rng), d(rng)};
    const geom::Vec2 b{d(rng), d(rng)};
    bool bad = false;
    for (const auto& h : net_->holes().holes) {
      bad = bad || h.polygon.contains(a) || h.polygon.contains(b);
    }
    if (bad) continue;
    const double od = overlay.waypointsWithDistance(a, b).distance;
    // Never shorter than the straight line...
    EXPECT_GE(od, geom::dist(a, b) - 1e-9);
    // ...and when visible, within the Delaunay spanner factor (the
    // overlay Delaunay does not keep direct edges between arbitrary
    // temporary endpoints; Thm 2.8's 1.998 bounds the detour).
    if (vis.visible(a, b)) {
      EXPECT_LE(od, 1.998 * geom::dist(a, b) + 1e-9);
    }
  }
}

TEST_F(OverlayFixture, EndpointOnSiteIsReusedNotDuplicated) {
  const auto& overlay = net_->router().overlay();
  ASSERT_FALSE(overlay.sites().empty());
  const graph::NodeId site = overlay.sites()[0];
  const geom::Vec2 sp = net_->ldel().position(site);
  // Query from exactly a site position: must not confuse the Delaunay
  // re-triangulation (duplicate points) and must not return the site as a
  // waypoint of itself.
  const auto route = overlay.waypointsWithDistance(sp, {2.0, 2.0});
  ASSERT_TRUE(route.reachable);
  for (graph::NodeId w : route.waypoints) EXPECT_NE(w, site);
}

TEST_F(OverlayFixture, SameStartAndEnd) {
  const auto& overlay = net_->router().overlay();
  const auto route = overlay.waypointsWithDistance({5.0, 5.0}, {5.0, 5.0});
  ASSERT_TRUE(route.reachable);
  EXPECT_TRUE(route.waypoints.empty());
  EXPECT_DOUBLE_EQ(route.distance, 0.0);
}

TEST_F(OverlayFixture, VisibilityModeHasMoreEdgesThanDelaunay) {
  auto vis = net_->makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Visibility});
  auto del = net_->makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Delaunay});
  EXPECT_GT(bench::siteGraphEdges(vis->overlay()), bench::siteGraphEdges(del->overlay()));
  EXPECT_EQ(vis->overlay().sites().size(), del->overlay().sites().size());
}

TEST_F(OverlayFixture, BoundarySitesAreASupersetOfHullSites) {
  auto hull = net_->makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Delaunay});
  auto bnd = net_->makeRouter({.sites = SiteMode::AllHoleNodes, .edges = EdgeMode::Delaunay});
  auto lch = net_->makeRouter({.sites = SiteMode::LocallyConvexHull, .edges = EdgeMode::Delaunay});
  const auto& hs = hull->overlay().sites();
  const auto& bs = bnd->overlay().sites();
  const auto& ls = lch->overlay().sites();
  EXPECT_LE(hs.size(), ls.size());
  EXPECT_LE(ls.size(), bs.size());
  for (graph::NodeId v : hs) {
    EXPECT_NE(std::find(bs.begin(), bs.end(), v), bs.end());
  }
}

}  // namespace
}  // namespace hybrid::routing
