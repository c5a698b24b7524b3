// Property sweeps asserting the paper's proven worst-case bounds hold on
// every delivered route across many random instances:
//  - visibility-graph overlay: 17.7-competitive (§3),
//  - overlay Delaunay: 35.37-competitive (§3/§4),
//  - visible pairs under Chew: 5.9-competitive (Thm 2.11),
//  - LDel^2 spanner: 1.998 (Thm 2.9).
// Bounds only apply cleanly when the protocol never needs a fallback, so
// fallback routes are skipped (they are counted and reported in E1).

#include <gtest/gtest.h>

#include <random>

#include "core/hybrid_network.hpp"
#include "graph/shortest_path.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

class PaperBounds : public ::testing::TestWithParam<int> {
 protected:
  scenario::Scenario makeInstance() const {
    scenario::ScenarioParams p;
    p.width = p.height = 18.0;
    p.seed = 500 + static_cast<unsigned>(GetParam());
    const int variant = GetParam() % 3;
    if (variant == 0) {
      p.obstacles.push_back(scenario::regularPolygonObstacle({9, 9}, 2.8, 6));
    } else if (variant == 1) {
      p.obstacles.push_back(scenario::rectangleObstacle({5, 7}, {9, 11}));
      p.obstacles.push_back(scenario::regularPolygonObstacle({13, 11}, 2.0, 7));
    } else {
      p.obstacles.push_back(scenario::uShapeObstacle({9, 9}, 6.5, 6.0, 1.4));
    }
    return scenario::makeScenario(p);
  }
};

TEST_P(PaperBounds, RoutersStayUnderTheirCompetitiveCeilings) {
  const auto sc = makeInstance();
  core::HybridNetwork net(sc.points);
  auto visRouter = net.makeRouter(
      {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Visibility});
  auto delRouter = net.makeRouter(
      {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Delaunay});

  std::mt19937 rng(9);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  for (int it = 0; it < 60; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s == t) continue;
    const auto rv = visRouter->route(s, t);
    ASSERT_TRUE(rv.delivered);
    if (rv.fallbacks == 0) {
      EXPECT_LE(net.stretch(rv, s, t), 17.7 + 1e-9) << s << "->" << t << " (vis)";
    }
    const auto rd = delRouter->route(s, t);
    ASSERT_TRUE(rd.delivered);
    if (rd.fallbacks == 0) {
      EXPECT_LE(net.stretch(rd, s, t), 35.37 + 1e-9) << s << "->" << t << " (del)";
    }
  }
}

TEST_P(PaperBounds, SpannerRatioUnderXiaBound) {
  const auto sc = makeInstance();
  core::HybridNetwork net(sc.points);
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  for (int it = 0; it < 30; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s == t) continue;
    const double udg = net.shortestUdgDistance(s, t);
    const double ldel = graph::shortestPathLength(net.ldel(), s, t);
    EXPECT_LE(ldel, 1.998 * udg + 1e-9) << s << "->" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, PaperBounds, ::testing::Range(0, 9));

}  // namespace
}  // namespace hybrid
