#include <gtest/gtest.h>

#include <numbers>
#include <set>

#include "abstraction/dominating_set.hpp"
#include "abstraction/hole_abstraction.hpp"
#include "core/hybrid_network.hpp"
#include "geom/angle.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

scenario::Scenario hexHoleScenario(unsigned seed = 21, double side = 18.0) {
  scenario::ScenarioParams p;
  p.width = p.height = side;
  p.seed = seed;
  p.obstacles.push_back(scenario::regularPolygonObstacle({side / 2, side / 2}, 3.0, 6));
  return scenario::makeScenario(p);
}

TEST(Holes, RingsAreClosedWalksOfGraphEdges) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  for (const auto& h : net.holes().holes) {
    if (h.outer) continue;  // outer holes use one synthetic hull edge
    ASSERT_GE(h.ring.size(), 4u);
    for (std::size_t i = 0; i < h.ring.size(); ++i) {
      EXPECT_TRUE(net.ldel().hasEdge(h.ring[i], h.ring[(i + 1) % h.ring.size()]))
          << "ring edge " << i;
    }
  }
}

TEST(Holes, InnerHoleRingsTurnCounterClockwise) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  int checked = 0;
  for (const auto& h : net.holes().holes) {
    std::vector<geom::Vec2> ring;
    std::set<graph::NodeId> distinct(h.ring.begin(), h.ring.end());
    if (distinct.size() != h.ring.size()) continue;  // skip pinched walks
    for (graph::NodeId v : h.ring) ring.push_back(net.ldel().position(v));
    EXPECT_NEAR(geom::turningSum(ring), 2.0 * std::numbers::pi, 1e-6);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Holes, OuterBoundaryTurnsClockwise) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  const auto& ob = net.holes().outerBoundary;
  ASSERT_GE(ob.size(), 3u);
  std::set<graph::NodeId> distinct(ob.begin(), ob.end());
  if (distinct.size() == ob.size()) {
    std::vector<geom::Vec2> ring;
    for (graph::NodeId v : ob) ring.push_back(net.ldel().position(v));
    EXPECT_NEAR(geom::turningSum(ring), -2.0 * std::numbers::pi, 1e-6);
  }
}

TEST(Holes, NoNodeInsideAnyHolePolygon) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  for (const auto& h : net.holes().holes) {
    if (h.outer) continue;
    const std::set<graph::NodeId> onRing(h.ring.begin(), h.ring.end());
    for (int v = 0; v < static_cast<int>(net.ldel().numNodes()); ++v) {
      if (onRing.contains(v)) continue;
      EXPECT_FALSE(h.polygon.containsStrict(net.ldel().position(v)))
          << "node " << v << " inside hole";
    }
  }
}

TEST(Holes, HoleNodeFlagsConsistent) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  const auto& analysis = net.holes();
  for (std::size_t hi = 0; hi < analysis.holes.size(); ++hi) {
    for (graph::NodeId v : analysis.holes[hi].ring) {
      EXPECT_TRUE(analysis.isHoleNode[static_cast<std::size_t>(v)]);
      const auto& list = analysis.holesOfNode[static_cast<std::size_t>(v)];
      EXPECT_NE(std::find(list.begin(), list.end(), static_cast<int>(hi)), list.end());
    }
  }
}

TEST(Abstraction, LocallyConvexHullInvariant) {
  // Definition 4.1 at the fixpoint: no three consecutive nodes u,v,w with
  // a reflex angle and ||uw|| <= 1 remain.
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  for (const auto& a : net.abstractions()) {
    const auto& lch = a.locallyConvexHull;
    if (lch.size() < 3) continue;
    for (std::size_t i = 0; i < lch.size(); ++i) {
      const auto u = lch[(i + lch.size() - 1) % lch.size()];
      const auto v = lch[i];
      const auto w = lch[(i + 1) % lch.size()];
      const double turn = geom::signedTurnAngle(
          net.ldel().position(u), net.ldel().position(v), net.ldel().position(w));
      if (turn <= 0.0) {
        EXPECT_GT(net.ldel().edgeLength(u, w), 1.0)
            << "reflex shortcut still <= 1 at " << v;
      }
    }
  }
}

TEST(Abstraction, HullNodesLieOnTheirRing) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  for (const auto& a : net.abstractions()) {
    const auto& ring = net.holes().holes[static_cast<std::size_t>(a.holeIndex)].ring;
    const std::set<graph::NodeId> ringSet(ring.begin(), ring.end());
    for (graph::NodeId v : a.hullNodes) EXPECT_TRUE(ringSet.contains(v));
  }
}

TEST(Abstraction, BaysPartitionTheRing) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  for (const auto& a : net.abstractions()) {
    const auto& ring = net.holes().holes[static_cast<std::size_t>(a.holeIndex)].ring;
    std::set<graph::NodeId> distinct(ring.begin(), ring.end());
    if (distinct.size() != ring.size()) continue;
    // Every ring node is either a hull node or in exactly one bay chain.
    std::set<graph::NodeId> covered(a.hullNodes.begin(), a.hullNodes.end());
    for (const auto& bay : a.bays) {
      for (graph::NodeId v : bay.chain) {
        EXPECT_TRUE(covered.insert(v).second) << "node " << v << " in two bays";
      }
      // Bay endpoints are hull nodes.
      EXPECT_NE(std::find(a.hullNodes.begin(), a.hullNodes.end(), bay.hullFrom),
                a.hullNodes.end());
      EXPECT_NE(std::find(a.hullNodes.begin(), a.hullNodes.end(), bay.hullTo),
                a.hullNodes.end());
    }
    EXPECT_EQ(covered.size(), distinct.size());
  }
}

TEST(Abstraction, SizesOrdered) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  for (const auto& a : net.abstractions()) {
    const auto& ring = net.holes().holes[static_cast<std::size_t>(a.holeIndex)].ring;
    EXPECT_LE(a.hullNodes.size(), a.locallyConvexHull.size());
    EXPECT_LE(a.locallyConvexHull.size(), ring.size());
  }
}

TEST(DominatingSet, PathRuleIsOptimal) {
  for (int k = 1; k <= 30; ++k) {
    std::vector<graph::NodeId> chain;
    for (int i = 0; i < k; ++i) chain.push_back(i);
    const auto ds = abstraction::pathDominatingSet(chain);
    EXPECT_TRUE(abstraction::dominatesChain(chain, ds)) << "k=" << k;
    EXPECT_EQ(ds.size(), static_cast<std::size_t>((k + 2) / 3)) << "k=" << k;
  }
}

TEST(DominatingSet, DominatesChainEdgeCases) {
  EXPECT_TRUE(abstraction::dominatesChain({}, {}));
  EXPECT_FALSE(abstraction::dominatesChain({1}, {}));
  EXPECT_TRUE(abstraction::dominatesChain({1}, {1}));
  EXPECT_TRUE(abstraction::dominatesChain({1, 2}, {1}));
  EXPECT_FALSE(abstraction::dominatesChain({1, 2, 3, 4}, {1}));
}

TEST(Storage, HullNodesDominateStorageAndOthersConstant) {
  const auto sc = hexHoleScenario();
  core::HybridNetwork net(sc.points);
  const auto rep = net.storageReport();
  EXPECT_EQ(rep.maxOtherNodeStorage, 1);
  EXPECT_GT(rep.maxHullNodeStorage, rep.maxBoundaryNodeStorage);
  EXPECT_EQ(rep.maxHullNodeStorage, rep.totalHullNodes);
  EXPECT_EQ(rep.perNode.size(), net.ldel().numNodes());
}

}  // namespace
}  // namespace hybrid
