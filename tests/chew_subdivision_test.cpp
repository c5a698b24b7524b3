#include <gtest/gtest.h>

#include <random>

#include "core/hybrid_network.hpp"
#include "routing/chew.hpp"
#include "routing/subdivision.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

TEST(Subdivision, ClassifiesTrianglesAndHoles) {
  scenario::ScenarioParams p;
  p.width = p.height = 14.0;
  p.seed = 91;
  p.obstacles.push_back(scenario::regularPolygonObstacle({7, 7}, 2.2, 6));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  const auto& sub = net.subdivision();

  int walkable = 0;
  int holeFaces = 0;
  int outer = 0;
  for (int f = 0; f < sub.faces().numFaces(); ++f) {
    if (sub.isOuterFace(f)) {
      ++outer;
      EXPECT_FALSE(sub.isWalkable(f));
      continue;
    }
    if (sub.isWalkable(f)) {
      ++walkable;
      EXPECT_EQ(sub.faces().cycle(f).size(), 3u);
      EXPECT_EQ(sub.holeOfFace(f), -1);
    } else if (sub.holeOfFace(f) >= 0) {
      ++holeFaces;
      EXPECT_LT(sub.holeOfFace(f), static_cast<int>(net.holes().holes.size()));
    }
  }
  EXPECT_EQ(outer, 1);
  EXPECT_GT(walkable, 100);
  // Every detected hole matches exactly one face.
  EXPECT_EQ(holeFaces, static_cast<int>(net.holes().holes.size()));
}

TEST(Subdivision, GridKeepsEveryTriangleWalkable) {
  // The hull's sides are chains of collinear nodes. A hull edge corner to
  // corner would run along them, break planarity and merge the corner
  // triangles into the outer face.
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 9; ++x) pts.push_back({x * 0.6, y * 0.6});
  }
  core::HybridNetwork net(pts);
  const auto& sub = net.subdivision();
  const auto& faces = sub.faces();
  EXPECT_EQ(static_cast<long>(pts.size()) - faces.numHalfEdges() / 2 + faces.numFaces(), 2);
  int walkable = 0;
  for (int f = 0; f < faces.numFaces(); ++f) walkable += sub.isWalkable(f) ? 1 : 0;
  EXPECT_EQ(walkable, 128);
}

TEST(Subdivision, FaceLeftOfIsConsistentWithCycles) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(200, 92));
  core::HybridNetwork net(sc.points);
  const auto& sub = net.subdivision();
  for (int f = 0; f < sub.faces().numFaces(); ++f) {
    const auto cycle = sub.faces().cycle(f);
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_EQ(sub.faceLeftOf(cycle[i], cycle[(i + 1) % cycle.size()]), f);
    }
  }
}

TEST(Subdivision, IncidentFaceContainingFindsProbes) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(200, 93));
  core::HybridNetwork net(sc.points);
  const auto& sub = net.subdivision();
  // For interior nodes, a probe slightly off the node lies in one of its
  // incident faces.
  std::mt19937 rng(1);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net.ldel().numNodes()) - 1);
  std::uniform_real_distribution<double> ang(0.0, 6.28);
  int found = 0;
  int tried = 0;
  for (int it = 0; it < 60; ++it) {
    const int v = pick(rng);
    const auto pos = net.ldel().position(v);
    const double a = ang(rng);
    const geom::Vec2 probe{pos.x + 1e-6 * std::cos(a), pos.y + 1e-6 * std::sin(a)};
    ++tried;
    const int face = sub.incidentFaceContaining(v, probe);
    if (face >= 0) {
      ++found;
      const auto cycle = sub.faces().cycle(face);
      EXPECT_TRUE(std::find(cycle.begin(), cycle.end(), v) != cycle.end());
    }
  }
  // Most probes land in a bounded incident face (boundary nodes may probe
  // into the outer face).
  EXPECT_GT(found, tried * 3 / 4);
}

TEST(Chew, HandlesCollinearVertexPass) {
  // A structured grid forces the segment through exact vertex hits.
  std::vector<geom::Vec2> pts;
  for (int y = 0; y <= 10; ++y) {
    for (int x = 0; x <= 10; ++x) {
      pts.push_back({x * 0.7, y * 0.7});
    }
  }
  // Shift odd rows slightly so the triangulation is non-degenerate, but
  // keep row 5 exactly straight: routing along it passes through vertices.
  for (int y = 1; y <= 10; y += 2) {
    if (y == 5) continue;
    for (int x = 0; x <= 10; ++x) {
      pts[static_cast<std::size_t>(y * 11 + x)].x += 0.13;
    }
  }
  core::HybridNetwork net(pts);
  routing::ChewRouter chew(net.ldel(), net.subdivision());
  const int s = 5 * 11 + 0;
  const int t = 5 * 11 + 10;
  const auto r = chew.route(s, t);
  ASSERT_TRUE(r.delivered);
  // The straight row is the optimal path; Chew should essentially take it.
  EXPECT_LE(net.ldel().pathLength(r.path), 0.7 * 10 * 1.2);
}

TEST(Chew, SelfAndNeighborTrivia) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(150, 94));
  core::HybridNetwork net(sc.points);
  routing::ChewRouter chew(net.ldel(), net.subdivision());
  const auto self = chew.route(7, 7);
  EXPECT_TRUE(self.delivered);
  EXPECT_EQ(self.hops(), 0u);
  const auto nbrs = net.ldel().neighbors(7);
  ASSERT_FALSE(nbrs.empty());
  const auto one = chew.route(7, nbrs[0]);
  EXPECT_TRUE(one.delivered);
  EXPECT_EQ(one.hops(), 1u);
}

TEST(Chew, ExtendRefusesEmptyPath) {
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(150, 95));
  core::HybridNetwork net(sc.points);
  routing::ChewRouter chew(net.ldel(), net.subdivision());
  std::vector<graph::NodeId> empty;
  EXPECT_FALSE(chew.extend(empty, 3, nullptr));
}

}  // namespace
}  // namespace hybrid
