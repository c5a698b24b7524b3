#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/hybrid_network.hpp"
#include "routing/goafr.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

TEST(Goafr, DeliversOnScenariosWithHoles) {
  scenario::ScenarioParams p;
  p.width = p.height = 20.0;
  p.seed = 45;
  p.obstacles.push_back(scenario::regularPolygonObstacle({10.0, 10.0}, 3.0, 6));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  routing::GoafrRouter goafr(net.ldel(), net.subdivision());

  std::mt19937 rng(3);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  int delivered = 0;
  const int pairs = 120;
  for (int it = 0; it < pairs; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    const auto r = goafr.route(s, t);
    if (r.delivered) ++delivered;
    // Every hop is a real edge.
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      ASSERT_TRUE(net.ldel().hasEdge(r.path[i], r.path[i + 1]));
    }
  }
  // A worst-case-optimal local strategy must deliver (allow a tiny slack
  // for boundary-face corner cases of our implementation).
  EXPECT_GE(delivered, pairs * 95 / 100);
}

TEST(Goafr, FaceWalksSkipHullHalfEdges) {
  // The deployment of LdelProtocol.SecondRunDetectsOuterHoles with a notch
  // cut into its top edge. The face table closes each outer hole with a
  // hull half-edge that is no radio link; a face walk that leaves a notch
  // corner must skip it and follow the boundary. Routes between the outer
  // holes' ring nodes walk those faces, and every hop must be an LDel^2
  // edge.
  scenario::ScenarioParams p;
  p.width = p.height = 16.0;
  p.seed = 410;
  p.jitter = 0.35;
  p.obstacles.push_back(scenario::regularPolygonObstacle({8, 8}, 2.5, 6));
  p.obstacles.push_back(geom::Polygon({{6, 12}, {10, 12}, {10, 17}, {6, 17}}));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  std::set<graph::NodeId> onOuterHole;
  for (const auto& hole : net.holes().holes) {
    if (hole.outer) onOuterHole.insert(hole.ring.begin(), hole.ring.end());
  }
  ASSERT_FALSE(onOuterHole.empty());

  const auto& faces = net.subdivision().faces();
  const routing::GoafrRouter goafr(net.ldel(), net.subdivision());
  for (const graph::NodeId s : onOuterHole) {
    for (const graph::NodeId t : onOuterHole) {
      if (s == t) continue;
      const auto r = goafr.route(s, t);
      ASSERT_TRUE(r.delivered) << s << "->" << t;
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        const int h = faces.find(r.path[i], r.path[i + 1]);
        ASSERT_GE(h, 0) << s << "->" << t << " hop " << i;
        ASSERT_FALSE(faces.isHull(h)) << s << "->" << t << " hop " << i;
      }
    }
  }
}

TEST(Goafr, PaysForItsExplorationAroundDeepHoles) {
  // U-shaped hole with target behind it: GOAFR's bounded face exploration
  // must walk in and back out, so its path is longer than the hybrid's.
  scenario::ScenarioParams p;
  p.width = p.height = 24.0;
  p.seed = 47;
  p.obstacles.push_back(scenario::uShapeObstacle({12.0, 12.0}, 10.0, 9.0, 1.5));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  routing::GoafrRouter goafr(net.ldel(), net.subdivision());

  auto nearest = [&](geom::Vec2 q) {
    int best = 0;
    double bd = 1e18;
    for (int v = 0; v < static_cast<int>(sc.points.size()); ++v) {
      const double d = geom::dist2(net.ldel().position(v), q);
      if (d < bd) {
        bd = d;
        best = v;
      }
    }
    return best;
  };
  const int s = nearest({12.0, 12.5});  // inside the bay
  const int t = nearest({12.0, 2.0});   // below the U
  const auto rg = goafr.route(s, t);
  const auto rh = net.route(s, t);
  ASSERT_TRUE(rg.delivered);
  ASSERT_TRUE(rh.delivered);
  EXPECT_GT(net.stretch(rg, s, t), net.stretch(rh, s, t));
}

}  // namespace
}  // namespace hybrid
