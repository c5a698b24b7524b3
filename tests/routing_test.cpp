#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/hybrid_network.hpp"
#include "routing/baselines.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

int nearestNode(const graph::GeometricGraph& g, geom::Vec2 p) {
  int best = 0;
  double bestD = 1e18;
  for (int v = 0; v < static_cast<int>(g.numNodes()); ++v) {
    const double d = geom::dist2(g.position(v), p);
    if (d < bestD) {
      bestD = d;
      best = v;
    }
  }
  return best;
}

// Every hop of a route must be a real communication (LDel) edge, and a
// delivered route must end at the target.
void checkRouteValid(const core::HybridNetwork& net, const routing::RouteResult& r,
                     int s, int t) {
  ASSERT_FALSE(r.path.empty());
  EXPECT_EQ(r.path.front(), s);
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    EXPECT_TRUE(net.ldel().hasEdge(r.path[i], r.path[i + 1]))
        << "hop " << r.path[i] << " -> " << r.path[i + 1] << " is not an LDel edge";
  }
  if (r.delivered) {
    EXPECT_EQ(r.path.back(), t);
  }
}

class RoutingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::ScenarioParams p;
    p.width = p.height = 20.0;
    p.seed = 33;
    p.obstacles.push_back(scenario::regularPolygonObstacle({10.0, 10.0}, 3.0, 6));
    sc_ = new scenario::Scenario(scenario::makeScenario(p));
    net_ = new core::HybridNetwork(sc_->points);
  }
  static void TearDownTestSuite() {
    delete net_;
    delete sc_;
    net_ = nullptr;
    sc_ = nullptr;
  }

  static scenario::Scenario* sc_;
  static core::HybridNetwork* net_;
};

scenario::Scenario* RoutingFixture::sc_ = nullptr;
core::HybridNetwork* RoutingFixture::net_ = nullptr;

TEST_F(RoutingFixture, ChewDeliversBetweenVisibleNodes) {
  const geom::VisibilityContext vis(net_->holes().holePolygons());
  routing::ChewRouter chew(net_->ldel(), net_->subdivision());
  std::mt19937 rng(1);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net_->ldel().numNodes()) - 1);
  int tested = 0;
  for (int it = 0; it < 2000 && tested < 80; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s == t) continue;
    if (!vis.visible(net_->ldel().position(s), net_->ldel().position(t))) continue;
    const auto r = chew.route(s, t);
    if (!r.delivered && r.blockedHole < 0) continue;  // outer-face corner
    ++tested;
    ASSERT_TRUE(r.delivered) << s << " -> " << t;
    checkRouteValid(*net_, r, s, t);
    // Thm 2.11: at most 5.9 ||st||.
    const double ratio = net_->ldel().pathLength(r.path) /
                         geom::dist(net_->ldel().position(s), net_->ldel().position(t));
    EXPECT_LE(ratio, 5.9 + 1e-9);
  }
  EXPECT_GE(tested, 50);
}

TEST_F(RoutingFixture, ChewReportsTheBlockingHole) {
  // Pick s,t on opposite sides of the central hole.
  const int s = nearestNode(net_->ldel(), {4.0, 10.0});
  const int t = nearestNode(net_->ldel(), {16.0, 10.0});
  routing::ChewRouter chew(net_->ldel(), net_->subdivision());
  const auto r = chew.route(s, t);
  ASSERT_FALSE(r.delivered);
  ASSERT_GE(r.blockedHole, 0);
  const auto& hole = net_->holes().holes[static_cast<std::size_t>(r.blockedHole)];
  EXPECT_TRUE(hole.polygon.contains({10.0, 10.0})) << "blocked by the wrong hole";
  // The walk stops on the hole boundary.
  const auto& ring = hole.ring;
  EXPECT_NE(std::find(ring.begin(), ring.end(), r.path.back()), ring.end());
  checkRouteValid(*net_, r, s, t);
}

TEST_F(RoutingFixture, GreedyGetsStuckAtTheHoleButHybridDelivers) {
  const int s = nearestNode(net_->ldel(), {4.0, 10.0});
  const int t = nearestNode(net_->ldel(), {16.0, 10.0});
  routing::GreedyRouter greedy(net_->ldel());
  const auto rg = greedy.route(s, t);
  EXPECT_FALSE(rg.delivered);
  const auto rh = net_->router().route(s, t);
  EXPECT_TRUE(rh.delivered);
  checkRouteValid(*net_, rh, s, t);
}

TEST_F(RoutingFixture, AllRoutersProduceValidPaths) {
  routing::GreedyRouter greedy(net_->ldel());
  routing::CompassRouter compass(net_->ldel());
  routing::FaceGreedyRouter face(net_->ldel(), net_->subdivision(), net_->holes());
  auto hullVis = net_->makeRouter(
      {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
  auto bndDel = net_->makeRouter(
      {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Delaunay});

  std::mt19937 rng(17);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net_->ldel().numNodes()) - 1);
  routing::Router* routers[] = {&greedy, &compass, &face, hullVis.get(), bndDel.get(),
                                &net_->router()};
  for (int it = 0; it < 30; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    for (auto* router : routers) {
      const auto r = router->route(s, t);
      checkRouteValid(*net_, r, s, t);
    }
  }
}

TEST_F(RoutingFixture, FaceGreedyAlwaysDelivers) {
  routing::FaceGreedyRouter face(net_->ldel(), net_->subdivision(), net_->holes());
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net_->ldel().numNodes()) - 1);
  for (int it = 0; it < 120; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    const auto r = face.route(s, t);
    EXPECT_TRUE(r.delivered) << s << " -> " << t;
  }
}

TEST_F(RoutingFixture, OverlayWaypointLegsAreHoleFreeOrBackbone) {
  const auto& overlay = net_->router().overlay();
  const geom::VisibilityContext vis(net_->holes().holePolygons());
  // Backbone legs (consecutive hull nodes of one hole) are exempt: they
  // are kept unconditionally (see OverlayGraph::buildQueryGraph).
  std::set<std::pair<graph::NodeId, graph::NodeId>> backbone;
  for (const auto& a : net_->abstractions()) {
    for (std::size_t i = 0; i < a.hullNodes.size(); ++i) {
      const auto u = a.hullNodes[i];
      const auto v = a.hullNodes[(i + 1) % a.hullNodes.size()];
      backbone.insert({u, v});
      backbone.insert({v, u});
    }
  }
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> d(1.0, 19.0);
  for (int it = 0; it < 40; ++it) {
    geom::Vec2 from{d(rng), d(rng)};
    geom::Vec2 to{d(rng), d(rng)};
    bool inHole = false;
    for (const auto& h : net_->holes().holes) {
      inHole = inHole || h.polygon.contains(from) || h.polygon.contains(to);
    }
    if (inHole) continue;
    const auto route = overlay.waypointsWithDistance(from, to);
    if (!route.reachable) continue;
    geom::Vec2 prev = from;
    graph::NodeId prevId = -1;
    for (graph::NodeId w : route.waypoints) {
      const bool isBackbone = prevId >= 0 && backbone.contains({prevId, w});
      EXPECT_TRUE(isBackbone || vis.visible(prev, net_->ldel().position(w)));
      prev = net_->ldel().position(w);
      prevId = w;
    }
    EXPECT_TRUE(vis.visible(prev, to));  // endpoint legs are vis-filtered
  }
}

TEST_F(RoutingFixture, RouteToSelfIsTrivial) {
  const auto r = net_->router().route(5, 5);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path.size(), 1u);
  EXPECT_EQ(r.hops(), 0u);
}

TEST_F(RoutingFixture, AdjacentNodesOneHop) {
  const int s = 10;
  const auto nbrs = net_->ldel().neighbors(s);
  ASSERT_FALSE(nbrs.empty());
  const auto r = net_->router().route(s, nbrs[0]);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops(), 1u);
}

TEST(RoutingBay, SameBayPairsUseCase5) {
  // U-shaped hole: pairs inside the bay exercise §4.4.
  scenario::ScenarioParams p;
  const double side = 22.0;
  p.width = p.height = side;
  p.seed = 37;
  p.obstacles.push_back(scenario::uShapeObstacle({side / 2, side / 2}, 10.0, 8.5, 1.4));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);

  auto& router = net.router();
  const int s = nearestNode(net.ldel(), {side / 2 - 3.0, side / 2 + 1.0});
  const int t = nearestNode(net.ldel(), {side / 2 + 3.0, side / 2 + 1.0});
  const auto locS = router.locate(net.ldel().position(s));
  const auto locT = router.locate(net.ldel().position(t));
  ASSERT_TRUE(locS.has_value());
  ASSERT_TRUE(locT.has_value());
  EXPECT_EQ(locS->abstraction, locT->abstraction);

  const auto r = router.route(s, t);
  EXPECT_TRUE(r.delivered);
  const double st = net.stretch(r, s, t);
  EXPECT_LE(st, (2.0 + r.bayExtremePoints) * 5.9 + 1e-9);  // Lemma 4.19
}

TEST(RoutingBay, InsideToOutsideAndBack) {
  scenario::ScenarioParams p;
  const double side = 22.0;
  p.width = p.height = side;
  p.seed = 39;
  p.obstacles.push_back(scenario::uShapeObstacle({side / 2, side / 2}, 10.0, 8.5, 1.4));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  auto& router = net.router();

  const int inside = nearestNode(net.ldel(), {side / 2, side / 2 + 0.5});
  const int outside = nearestNode(net.ldel(), {2.0, 2.0});
  ASSERT_TRUE(router.locate(net.ldel().position(inside)).has_value());
  ASSERT_FALSE(router.locate(net.ldel().position(outside)).has_value());

  const auto rOut = router.route(inside, outside);
  EXPECT_TRUE(rOut.delivered);
  const auto rIn = router.route(outside, inside);
  EXPECT_TRUE(rIn.delivered);
  EXPECT_LT(net.stretch(rOut, inside, outside), 8.0);
  EXPECT_LT(net.stretch(rIn, outside, inside), 8.0);
}

TEST(RoutingConfig, RouterNamesReflectConfiguration) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(200, 41));
  core::HybridNetwork net(sc.points);
  EXPECT_EQ(net.router().name(), "hybrid-hull-delaunay");
  auto r1 = net.makeRouter(
      {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
  EXPECT_EQ(r1->name(), "hybrid-hull-visibility");
  auto r2 = net.makeRouter(
      {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Delaunay});
  EXPECT_EQ(r2->name(), "hybrid-boundary-delaunay");
  auto r3 = net.makeRouter(
      {.sites = routing::SiteMode::LocallyConvexHull, .edges = routing::EdgeMode::Delaunay});
  EXPECT_EQ(r3->name(), "hybrid-lch-delaunay");
  routing::HybridOptions bbox;
  bbox.abstraction = routing::AbstractionMode::BBox;
  EXPECT_EQ(net.makeRouter(bbox)->name(), "hybrid-hull-delaunay+bbox");
}

TEST(RoutingNoHoles, PlainDeploymentNeedsNoOverlay) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(400, 43));
  core::HybridNetwork net(sc.points);
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  for (int it = 0; it < 50; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    const auto r = net.route(s, t);
    EXPECT_TRUE(r.delivered);
    EXPECT_LE(net.stretch(r, s, t), 5.9 + 1e-9);
  }
}

}  // namespace
}  // namespace hybrid
