#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <set>

#include "delaunay/udg.hpp"
#include "geom/polygon.hpp"
#include "graph/dsu.hpp"
#include "graph/graph.hpp"
#include "graph/planar_faces.hpp"
#include "graph/shortest_path.hpp"

namespace hybrid::graph {
namespace {

GeometricGraph pathGraph(int n) {
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({static_cast<double>(i), 0.0});
  GeometricGraph g(pts);
  for (int i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1);
  return g;
}

TEST(GeometricGraph, EdgeBookkeeping) {
  GeometricGraph g({{0, 0}, {1, 0}, {0, 1}});
  g.addEdge(0, 1);
  g.addEdge(0, 1);  // duplicate ignored
  g.addEdge(1, 0);  // reversed duplicate ignored
  g.addEdge(0, 0);  // self loop ignored
  EXPECT_EQ(g.numEdges(), 1u);
  EXPECT_TRUE(g.hasEdge(1, 0));
  g.addEdge(1, 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.maxDegree(), 2);
  g.removeEdge(0, 1);
  EXPECT_FALSE(g.hasEdge(0, 1));
  EXPECT_EQ(g.numEdges(), 1u);
}

TEST(GeometricGraph, ComponentsAndConnectivity) {
  GeometricGraph g({{0, 0}, {1, 0}, {5, 5}, {6, 5}});
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  int k = 0;
  const auto labels = g.componentLabels(&k);
  EXPECT_EQ(k, 2);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_FALSE(g.isConnected());
  g.addEdge(1, 2);
  EXPECT_TRUE(g.isConnected());
}

TEST(GeometricGraph, PathLength) {
  const auto g = pathGraph(4);
  const std::vector<NodeId> p{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(g.pathLength(p), 3.0);
  EXPECT_TRUE(std::isinf(g.pathLength(std::vector<NodeId>{})));
}

TEST(GeometricGraph, PlanarityCheck) {
  GeometricGraph g({{0, 0}, {2, 2}, {0, 2}, {2, 0}});
  g.addEdge(0, 1);
  EXPECT_TRUE(g.isPlanarEmbedding());
  g.addEdge(2, 3);  // crosses 0-1
  EXPECT_FALSE(g.isPlanarEmbedding());
}

TEST(ShortestPath, DijkstraOnPath) {
  const auto g = pathGraph(6);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[5], 5.0);
  EXPECT_EQ(tree.pathTo(5).size(), 6u);
  EXPECT_EQ(tree.pathTo(5).front(), 0);
  EXPECT_EQ(tree.pathTo(5).back(), 5);
}

TEST(ShortestPath, UnreachableTarget) {
  GeometricGraph g({{0, 0}, {1, 0}, {9, 9}});
  g.addEdge(0, 1);
  const auto tree = dijkstra(g, 0);
  EXPECT_TRUE(std::isinf(tree.dist[2]));
  EXPECT_TRUE(tree.pathTo(2).empty());
  EXPECT_TRUE(astarPath(g, 0, 2).empty());
}

TEST(ShortestPath, AStarAgreesWithDijkstra) {
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> d(0.0, 12.0);
  std::vector<geom::Vec2> pts(300);
  for (auto& p : pts) p = {d(rng), d(rng)};
  const auto g = delaunay::buildUnitDiskGraph(pts, 1.3);
  std::uniform_int_distribution<int> pick(0, 299);
  for (int it = 0; it < 60; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    const double dd = dijkstra(g, s, t).dist[static_cast<std::size_t>(t)];
    const auto ap = astarPath(g, s, t);
    if (std::isinf(dd)) {
      EXPECT_TRUE(ap.empty());
    } else {
      EXPECT_NEAR(g.pathLength(ap), dd, 1e-9);
    }
  }
}

TEST(ShortestPath, BfsHopsAndKHop) {
  const auto g = pathGraph(7);
  EXPECT_EQ(kHopNeighborhood(g, 3, 0), (std::vector<NodeId>{3}));
  // BFS order: the source, then each hop in discovery order.
  EXPECT_EQ(kHopNeighborhood(g, 3, 2), (std::vector<NodeId>{3, 2, 4, 1, 5}));
  EXPECT_EQ(kHopNeighborhood(g, 3, 3).size(), 7u);
  EXPECT_EQ(kHopNeighborhood(g, 0, -1), (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6}));

  // A neighbourhood far larger than the visited set's first table: a star
  // whose leaves also form a path, so every leaf is reached many times.
  std::vector<geom::Vec2> pts(201);
  GeometricGraph star(pts);
  for (int leaf = 1; leaf <= 200; ++leaf) {
    star.addEdge(0, leaf);
    if (leaf > 1) star.addEdge(leaf - 1, leaf);
  }
  auto nbh = kHopNeighborhood(star, 5, 2);
  EXPECT_EQ(nbh.front(), 5);
  std::sort(nbh.begin(), nbh.end());
  std::vector<NodeId> all(201);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(nbh, all);
}

TEST(Dsu, UnionFind) {
  DisjointSetUnion dsu(6);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(1, 2));
  EXPECT_FALSE(dsu.unite(0, 2));
  EXPECT_TRUE(dsu.same(0, 2));
  EXPECT_FALSE(dsu.same(0, 3));
  EXPECT_EQ(dsu.setSize(2), 3);
  EXPECT_EQ(dsu.setSize(5), 1);
}

constexpr double kNoHull = std::numeric_limits<double>::infinity();

TEST(PlanarFaces, TriangleHasTwoFaces) {
  GeometricGraph g({{0, 0}, {1, 0}, {0, 1}});
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 0);
  const PlanarFaces faces(g, kNoHull);
  ASSERT_EQ(faces.numFaces(), 2);
  int outer = 0;
  for (int f = 0; f < faces.numFaces(); ++f) {
    EXPECT_EQ(faces.cycle(f).size(), 3u);
    if (faces.isOuter(f)) ++outer;
  }
  EXPECT_EQ(outer, 1);
}

TEST(PlanarFaces, EulerFormulaOnRandomPlanarGraph) {
  // UDG of a jittered grid is planar? Not necessarily; use a Delaunay-free
  // construction: a grid graph (axis-aligned edges only) is planar.
  const int side = 8;
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  }
  GeometricGraph g(pts);
  auto id = [side](int x, int y) { return y * side + x; };
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      if (x + 1 < side) g.addEdge(id(x, y), id(x + 1, y));
      if (y + 1 < side) g.addEdge(id(x, y), id(x, y + 1));
    }
  }
  const PlanarFaces faces(g, kNoHull);
  // Euler: V - E + F = 2 for connected planar graphs.
  const auto v = static_cast<long>(g.numNodes());
  const auto e = static_cast<long>(g.numEdges());
  EXPECT_EQ(v - e + faces.numFaces(), 2);
  // Exactly one outer face, and every inner face is a unit square.
  int outer = 0;
  for (int f = 0; f < faces.numFaces(); ++f) {
    if (faces.isOuter(f)) {
      ++outer;
    } else {
      ASSERT_EQ(faces.cycle(f).size(), 4u);
      std::vector<geom::Vec2> ring;
      for (NodeId v : faces.cycle(f)) ring.push_back(g.position(v));
      EXPECT_NEAR(geom::Polygon(ring).signedArea2(), 2.0, 1e-12);  // area 1, ccw
    }
  }
  EXPECT_EQ(outer, 1);
}

TEST(PlanarFaces, FaceWalksCoverEveryDirectedEdgeOnce) {
  GeometricGraph g({{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}});
  for (int i = 0; i < 4; ++i) g.addEdge(i, (i + 1) % 4);
  for (int i = 0; i < 4; ++i) g.addEdge(i, 4);
  const PlanarFaces faces(g, kNoHull);
  std::size_t totalDirected = 0;
  for (int f = 0; f < faces.numFaces(); ++f) {
    totalDirected += faces.cycle(f).size();
    for (std::size_t i = 0; i < faces.cycle(f).size(); ++i) {
      const int h = faces.halfEdges(f)[i];
      EXPECT_EQ(faces.faceOf(h), f);
      EXPECT_EQ(faces.tail(h), faces.cycle(f)[i]);
      EXPECT_EQ(faces.twin(faces.twin(h)), h);
      EXPECT_EQ(faces.find(faces.tail(h), faces.head(h)), h);
    }
  }
  EXPECT_EQ(totalDirected, 2 * g.numEdges());
  EXPECT_EQ(faces.numFaces(), 5);  // 4 triangles + outer
}

TEST(PlanarFaces, CcwOrderAndSuccessors) {
  GeometricGraph g({{0, 0}, {1, 0}, {0, 1}, {-1, 0}, {0, -1}});
  for (int i = 1; i <= 4; ++i) g.addEdge(0, i);
  std::vector<NodeId> shuffled{4, 2, 1, 3};
  sortCcw(g, 0, shuffled);
  EXPECT_EQ(shuffled, (std::vector<NodeId>{1, 2, 3, 4}));

  const PlanarFaces faces(g, kNoHull);
  std::vector<NodeId> order;
  for (int h = faces.out(0); h < faces.out(1); ++h) order.push_back(faces.head(h));
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(faces.head(faces.ccw(faces.find(0, 1))), 2);
  EXPECT_EQ(faces.head(faces.ccw(faces.find(0, 4))), 1);
  EXPECT_EQ(faces.head(faces.cw(faces.find(0, 1))), 4);
  EXPECT_EQ(faces.head(faces.cw(faces.find(0, 2))), 1);
  for (int h = 0; h < faces.numHalfEdges(); ++h) {
    EXPECT_EQ(faces.cw(faces.ccw(h)), h);
    EXPECT_EQ(faces.ccw(faces.cw(h)), h);
  }
}

TEST(PlanarFaces, LongHullEdgeClosesTheRegionOfATree) {
  // A U-shaped path: a tree, whose single walk bounds no region.
  GeometricGraph g({{2, 2}, {2, 1}, {2, 0}, {1, 0}, {0, 0}, {0, 1}, {0, 2}});
  for (int i = 0; i + 1 < 7; ++i) g.addEdge(i, i + 1);
  const PlanarFaces tree(g, kNoHull);
  ASSERT_EQ(tree.numFaces(), 1);
  EXPECT_TRUE(tree.isOuter(0));
  EXPECT_EQ(tree.cycle(0).size(), 12u);

  // Radius 1.5: only the open top side of the hull is long enough to add.
  const PlanarFaces faces(g, 1.5);
  ASSERT_EQ(faces.numHalfEdges(), 2 * 7);
  ASSERT_EQ(faces.numFaces(), 2);
  int hull = 0;
  for (int h = 0; h < faces.numHalfEdges(); ++h) hull += faces.isHull(h) ? 1 : 0;
  EXPECT_EQ(hull, 2);
  EXPECT_TRUE(faces.isHull(faces.find(0, 6)));
  for (int f = 0; f < 2; ++f) {
    EXPECT_TRUE(faces.touchesHull(f));
    EXPECT_EQ(faces.cycle(f).size(), 7u);
  }
  EXPECT_NE(faces.isOuter(0), faces.isOuter(1));
}

}  // namespace
}  // namespace hybrid::graph
