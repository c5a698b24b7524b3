#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "alloc_counter.hpp"
#include "core/hybrid_network.hpp"
#include "graph/csr.hpp"
#include "graph/dijkstra_workspace.hpp"
#include "graph/shortest_path.hpp"
#include "routing/overlay_graph.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid::graph {
namespace {

GeometricGraph randomConnectedGraph(unsigned seed, int n, double radius) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  GeometricGraph g;
  for (int i = 0; i < n; ++i) g.addNode({coord(rng), coord(rng)});
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (geom::dist(g.position(u), g.position(v)) <= radius) g.addEdge(u, v);
    }
  }
  // Chain every node to its successor so the graph is connected and the
  // dijkstra comparison never degenerates to "everything unreachable".
  for (NodeId u = 0; u + 1 < n; ++u) g.addEdge(u, u + 1);
  return g;
}

TEST(QueryEngine, CsrMatchesAdjacency) {
  const auto g = randomConnectedGraph(7, 120, 2.0);
  const auto csr = buildCsr(g);
  ASSERT_EQ(csr.numNodes(), g.numNodes());
  EXPECT_EQ(csr.numDirectedEdges(), 2 * g.numEdges());
  for (NodeId v = 0; v < static_cast<NodeId>(g.numNodes()); ++v) {
    const auto ref = g.neighbors(v);
    const auto got = csr.neighbors(v);
    const auto w = csr.edgeWeights(v);
    ASSERT_EQ(got.size(), ref.size());
    ASSERT_EQ(w.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i]);
      EXPECT_DOUBLE_EQ(w[i], g.edgeLength(v, ref[i]));
    }
  }
}

TEST(QueryEngine, CsrFromExplicitAdjacency) {
  const std::vector<geom::Vec2> pos{{0, 0}, {3, 0}, {3, 4}};
  const std::vector<std::vector<int>> adj{{1, 2}, {0}, {0}};
  const auto csr = buildCsr(adj, pos);
  ASSERT_EQ(csr.numNodes(), 3u);
  ASSERT_EQ(csr.neighbors(0).size(), 2u);
  EXPECT_DOUBLE_EQ(csr.edgeWeights(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(csr.edgeWeights(0)[1], 5.0);
  EXPECT_EQ(csr.neighbors(1)[0], 0);
  EXPECT_DOUBLE_EQ(csr.edgeWeights(2)[0], 5.0);
}

TEST(QueryEngine, WorkspaceDijkstraMatchesReference) {
  std::vector<NodeId> wsPath;
  DijkstraWorkspace ws;
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto g = randomConnectedGraph(seed, 150, 1.6);
    const auto csr = buildCsr(g);
    const int n = static_cast<int>(g.numNodes());
    for (NodeId s : {0, n / 2, n - 1}) {
      const auto ref = dijkstra(g, s);
      ws.run(csr, s);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_DOUBLE_EQ(ws.dist(v), ref.dist[static_cast<std::size_t>(v)]);
        // Identical tie-breaking: the whole predecessor tree matches.
        EXPECT_EQ(ws.pred(v), ref.pred[static_cast<std::size_t>(v)]);
      }
      ws.pathTo(n - 1, wsPath);
      EXPECT_EQ(wsPath, ref.pathTo(n - 1));
    }
  }
}

TEST(QueryEngine, WorkspaceEarlyExitTargetDistanceIsExact) {
  const auto g = randomConnectedGraph(11, 200, 1.5);
  const auto csr = buildCsr(g);
  DijkstraWorkspace ws;
  const NodeId t = static_cast<NodeId>(g.numNodes()) - 1;
  ws.run(csr, 0, t);
  const auto ref = dijkstra(g, 0, t);
  EXPECT_DOUBLE_EQ(ws.dist(t), ref.dist[static_cast<std::size_t>(t)]);
}

TEST(QueryEngine, WorkspaceGenerationsInvalidateStaleResults) {
  GeometricGraph g;
  g.addNode({0, 0});
  g.addNode({1, 0});
  g.addNode({5, 5});  // isolated from node 0 except via the chain below
  g.addEdge(0, 1);
  const auto csr = buildCsr(g);
  DijkstraWorkspace ws;
  ws.run(csr, 0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 1.0);
  EXPECT_EQ(ws.dist(2), DijkstraWorkspace::kUnreached);
  // Re-run from the isolated node: old slots must read as unreached.
  ws.run(csr, 2);
  EXPECT_DOUBLE_EQ(ws.dist(2), 0.0);
  EXPECT_EQ(ws.dist(0), DijkstraWorkspace::kUnreached);
  EXPECT_EQ(ws.pred(1), -1);
  std::vector<NodeId> path;
  ws.pathTo(0, path);
  EXPECT_TRUE(path.empty());
}

TEST(QueryEngine, RepeatedWorkspaceRunsAreAllocationFree) {
  const auto g = randomConnectedGraph(3, 300, 1.5);
  const auto csr = buildCsr(g);
  DijkstraWorkspace ws;
  std::vector<NodeId> path;
  // Warm up with the same query mix: grows dist/pred/stamp, the heap's
  // high-water capacity, and the path vector once.
  auto sweep = [&] {
    for (int it = 0; it < 50; ++it) {
      const NodeId s = static_cast<NodeId>((it * 13) % g.numNodes());
      ws.run(csr, s);
      ws.pathTo(static_cast<NodeId>((it * 29) % g.numNodes()), path);
    }
  };
  sweep();
  const long before = testsupport::heapAllocCount();
  sweep();
  if (testsupport::heapAllocCountingEnabled()) {
    EXPECT_EQ(testsupport::heapAllocCount(), before);
  }
}

TEST(QueryEngine, PathToRejectsCorruptPredecessorCycle) {
  ShortestPathTree t;
  t.dist = {0.0, 1.0, 2.0};
  t.pred = {-1, 2, 1};  // 1 <-> 2 cycle never reaches the source
  EXPECT_TRUE(t.pathTo(2).empty());
  // A healthy chain still reconstructs.
  t.pred = {-1, 0, 1};
  EXPECT_EQ(t.pathTo(2), (std::vector<NodeId>{0, 1, 2}));
}

}  // namespace
}  // namespace hybrid::graph

namespace hybrid::routing {
namespace {

TEST(QueryEngine, OverlayWorkspaceQueriesAreAllocationFree) {
  // The hub-bucket scan's generation-stamped bucket arrays, like every
  // other scratch vector, must reach steady state after warm-up instead
  // of reallocating per query.
  scenario::ScenarioParams p;
  p.width = p.height = 14.0;
  p.seed = 77;
  p.obstacles.push_back(scenario::rectangleObstacle({5.0, 5.0}, {9.0, 9.0}));
  const auto sc = scenario::makeScenario(p);
  const core::HybridNetwork net(sc.points);
  const auto router =
      net.makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Visibility});
  const OverlayGraph& overlay = router->overlay();
  ASSERT_TRUE(overlay.servesIncrementally());

  OverlayQueryWorkspace ws;
  OverlayRoute out;
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> d(1.0, 13.0);
  std::vector<std::pair<geom::Vec2, geom::Vec2>> queries;
  for (int it = 0; it < 100; ++it) {
    queries.push_back({{d(rng), d(rng)}, {d(rng), d(rng)}});
  }
  overlay.query({2.0, 7.0}, {12.0, 7.0}, ws, out);
  ASSERT_TRUE(out.reachable);
  ASSERT_FALSE(out.waypoints.empty());
  // Warm-up sweep over the exact measured query mix so every scratch
  // vector reaches its high-water capacity.
  for (const auto& [a, b] : queries) overlay.query(a, b, ws, out);

  const long before = testsupport::heapAllocCount();
  for (const auto& [a, b] : queries) overlay.query(a, b, ws, out);
  if (testsupport::heapAllocCountingEnabled()) {
    EXPECT_EQ(testsupport::heapAllocCount(), before);
  }
}

TEST(QueryEngine, HubLabelWorkspaceQueriesAreAllocationFree) {
  // The label side on a denser site set (every hole node of two holes):
  // hub-bucket queries and site-pair label path unpacking into a reused
  // vector both reach steady state after warm-up.
  scenario::ScenarioParams p;
  p.width = p.height = 14.0;
  p.seed = 78;
  p.obstacles.push_back(scenario::rectangleObstacle({3.0, 3.0}, {6.0, 6.0}));
  p.obstacles.push_back(scenario::rectangleObstacle({8.0, 8.0}, {11.0, 11.0}));
  const auto sc = scenario::makeScenario(p);
  const core::HybridNetwork net(sc.points);
  const auto router =
      net.makeRouter({.sites = SiteMode::AllHoleNodes, .edges = EdgeMode::Visibility});
  const OverlayGraph& overlay = router->overlay();
  ASSERT_TRUE(overlay.servesIncrementally());
  const HubLabelOracle& labels = overlay.hubLabels();
  ASSERT_TRUE(labels.built());
  ASSERT_EQ(labels.numSites(), overlay.sites().size());
  const int h = static_cast<int>(labels.numSites());

  OverlayQueryWorkspace ws;
  OverlayRoute out;
  std::vector<int> path;
  std::mt19937 rng(6);
  std::uniform_real_distribution<double> d(1.0, 13.0);
  std::vector<std::pair<geom::Vec2, geom::Vec2>> queries;
  for (int it = 0; it < 100; ++it) {
    queries.push_back({{d(rng), d(rng)}, {d(rng), d(rng)}});
  }
  overlay.query({1.0, 1.0}, {13.0, 13.0}, ws, out);
  ASSERT_TRUE(out.reachable);
  ASSERT_FALSE(out.waypoints.empty());
  auto sweep = [&] {
    for (const auto& [a, b] : queries) overlay.query(a, b, ws, out);
    for (int i = 0; i < h; ++i) {
      for (int j = 0; j < h; ++j) {
        path.clear();
        labels.path(i, j, path);
      }
    }
  };
  sweep();

  const long before = testsupport::heapAllocCount();
  sweep();
  if (testsupport::heapAllocCountingEnabled()) {
    EXPECT_EQ(testsupport::heapAllocCount(), before);
  }
}

}  // namespace
}  // namespace hybrid::routing
