#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <tuple>

#include "delaunay/ldel.hpp"
#include "delaunay/triangulation.hpp"
#include "delaunay/udg.hpp"
#include "geom/polygon.hpp"
#include "geom/predicates.hpp"
#include "graph/shortest_path.hpp"
#include "spatial/grid_index.hpp"
#include "scenario/generator.hpp"
#include "testkit/oracles.hpp"

namespace hybrid::delaunay {
namespace {

std::vector<geom::Vec2> randomPoints(std::size_t n, unsigned seed, double extent = 50.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(0.0, extent);
  std::set<std::pair<double, double>> seen;
  std::vector<geom::Vec2> pts;
  while (pts.size() < n) {
    const geom::Vec2 p{d(rng), d(rng)};
    if (seen.insert({p.x, p.y}).second) pts.push_back(p);
  }
  return pts;
}

std::vector<int> within(const spatial::GridIndex& grid, geom::Vec2 center, double radius) {
  std::vector<int> got;
  grid.forEachWithin(center, radius, [&](int i) {
    got.push_back(i);
    return true;
  });
  return got;
}

TEST(GridIndex, MatchesBruteForce) {
  const auto pts = randomPoints(400, 3, 20.0);
  const spatial::GridIndex grid(pts, 1.0);
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> d(0.0, 20.0);
  for (int it = 0; it < 50; ++it) {
    const geom::Vec2 q{d(rng), d(rng)};
    const double r = 0.3 + 2.2 * (it % 5) / 4.0;
    // Result order: cells by (dx, dy), then ascending index within a cell.
    std::vector<std::tuple<double, double, int>> expect;
    for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
      const geom::Vec2 p = pts[static_cast<std::size_t>(i)];
      if (geom::dist2(p, q) <= r * r) expect.emplace_back(std::floor(p.x), std::floor(p.y), i);
    }
    std::sort(expect.begin(), expect.end());
    std::vector<int> expectIds;
    for (const auto& e : expect) expectIds.push_back(std::get<2>(e));
    EXPECT_EQ(within(grid, q, r), expectIds);
  }
}

TEST(GridIndex, VisitorStopsEarly) {
  const auto pts = randomPoints(50, 5, 2.0);
  const spatial::GridIndex grid(pts, 1.0);
  int visits = 0;
  EXPECT_FALSE(grid.forEachWithin({1.0, 1.0}, 3.0, [&](int) { return ++visits < 3; }));
  EXPECT_EQ(visits, 3);
  EXPECT_TRUE(grid.forEachWithin({1.0, 1.0}, 3.0, [](int) { return true; }));
}

TEST(GridIndex, FarApartPointsNeedNoDenseTable) {
  // Cells exist only where points are: two points 1e9 apart with cell size 1.
  const std::vector<geom::Vec2> pts = {{0.0, 0.0}, {1e9, 1e9}, {0.5, 0.25}, {-1e9, 3.0}};
  const spatial::GridIndex grid(pts, 1.0);
  EXPECT_EQ(within(grid, {0.0, 0.0}, 1.0), (std::vector<int>{0, 2}));
  EXPECT_EQ(within(grid, {1e9, 1e9 + 0.5}, 1.0), (std::vector<int>{1}));
  EXPECT_EQ(within(grid, {-1e9, 2.5}, 1.0), (std::vector<int>{3}));
  EXPECT_TRUE(within(grid, {5e8, 5e8}, 1.0).empty());
}

TEST(Delaunay, TinyInputs) {
  EXPECT_TRUE(DelaunayTriangulation({}).triangles().empty());
  EXPECT_TRUE(DelaunayTriangulation({{0, 0}}).triangles().empty());
  EXPECT_TRUE(DelaunayTriangulation({{0, 0}, {1, 1}}).triangles().empty());
  const DelaunayTriangulation tri({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(tri.triangles().size(), 1u);
  EXPECT_EQ(tri.edges().size(), 3u);
}

TEST(Delaunay, SquareHasTwoTriangles) {
  const DelaunayTriangulation dt({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(dt.triangles().size(), 2u);
  EXPECT_EQ(dt.edges().size(), 5u);
}

class DelaunayFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DelaunayFuzz, EmptyCircumcircleProperty) {
  const auto pts = randomPoints(120, static_cast<unsigned>(GetParam()) * 31 + 5);
  const DelaunayTriangulation dt(pts);
  // Euler-ish sanity: a triangulation of n points has <= 2n-5 triangles.
  EXPECT_LE(dt.triangles().size(), 2 * pts.size());
  EXPECT_GE(dt.triangles().size(), pts.size() / 2);

  for (const auto& t : dt.triangles()) {
    const geom::Vec2 a = pts[static_cast<std::size_t>(t.v[0])];
    const geom::Vec2 b = pts[static_cast<std::size_t>(t.v[1])];
    const geom::Vec2 c = pts[static_cast<std::size_t>(t.v[2])];
    const int o = geom::orient(a, b, c);
    ASSERT_NE(o, 0);
    for (int p = 0; p < static_cast<int>(pts.size()); ++p) {
      if (p == t.v[0] || p == t.v[1] || p == t.v[2]) continue;
      const int ic = geom::inCircle(a, b, c, pts[static_cast<std::size_t>(p)]);
      EXPECT_NE(o > 0 ? ic : -ic, 1)
          << "point " << p << " inside circumcircle of triangle " << t.v[0] << ","
          << t.v[1] << "," << t.v[2];
    }
  }
}

TEST_P(DelaunayFuzz, ContainsConvexHullEdges) {
  const auto pts = randomPoints(80, static_cast<unsigned>(GetParam()) * 13 + 2);
  const DelaunayTriangulation dt(pts);
  const auto hull = geom::convexHullIndices(pts);
  for (std::size_t i = 0; i < hull.size(); ++i) {
    EXPECT_TRUE(dt.hasEdge(hull[i], hull[(i + 1) % hull.size()]));
  }
}

TEST_P(DelaunayFuzz, GraphIsPlanarAndConnected) {
  const auto pts = randomPoints(100, static_cast<unsigned>(GetParam()) * 7 + 3);
  const auto g = DelaunayTriangulation(pts).toGraph();
  EXPECT_TRUE(g.isConnected());
  EXPECT_TRUE(g.isPlanarEmbedding());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelaunayFuzz, ::testing::Range(0, 6));

TEST(Udg, EdgesAreExactlyThePairsWithinRadius) {
  const auto pts = randomPoints(200, 8, 15.0);
  const auto g = buildUnitDiskGraph(pts, 1.0);
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    for (int j = i + 1; j < static_cast<int>(pts.size()); ++j) {
      const bool inRange = geom::dist(pts[static_cast<std::size_t>(i)],
                                      pts[static_cast<std::size_t>(j)]) <= 1.0;
      EXPECT_EQ(g.hasEdge(i, j), inRange) << i << " " << j;
    }
  }
}

TEST(Ldel, GabrielEdgesHaveEmptyDiametralCircles) {
  auto sc = scenario::makeScenario(scenario::paramsForNodeCount(500, 13));
  const auto ldel = buildLocalizedDelaunay(sc.points);
  for (const auto& [u, v] : ldel.gabrielEdges) {
    const geom::Vec2 pu = sc.points[static_cast<std::size_t>(u)];
    const geom::Vec2 pv = sc.points[static_cast<std::size_t>(v)];
    for (int w = 0; w < static_cast<int>(sc.points.size()); ++w) {
      if (w == u || w == v) continue;
      EXPECT_FALSE(geom::inDiametralCircle(pu, pv, sc.points[static_cast<std::size_t>(w)]))
          << "Gabriel edge " << u << "-" << v << " violated by " << w;
    }
  }
}

// Gabriel edges are exactly the UDG edges whose diametral circle holds no
// other point, by the exact predicate, also far from the origin where the
// rounded midpoint drifts by more than any fixed slack.
TEST(Ldel, GabrielEdgesMatchDefinition) {
  const auto bruteForce = [](const std::vector<geom::Vec2>& pts, const LocalizedDelaunay& ldel) {
    std::vector<std::pair<int, int>> want;
    for (const auto& [u, v] : ldel.udg.edges()) {
      bool empty = true;
      for (int w = 0; w < static_cast<int>(pts.size()) && empty; ++w) {
        empty = w == u || w == v ||
                !geom::inDiametralCircle(pts[static_cast<std::size_t>(u)],
                                         pts[static_cast<std::size_t>(v)],
                                         pts[static_cast<std::size_t>(w)]);
      }
      if (empty) want.emplace_back(u, v);
    }
    return want;
  };
  const auto sorted = [](std::vector<std::pair<int, int>> edges) {
    std::sort(edges.begin(), edges.end());
    return edges;
  };

  const std::vector<geom::Vec2> triple = {{1000000.8890849627, 1000000.9146670869},
                                          {1000000.9373404932, 1000001.8133724913},
                                          {1000001.0435166087, 1000001.7947411592}};
  ASSERT_TRUE(geom::inDiametralCircle(triple[0], triple[1], triple[2]));
  const auto tripleLdel = buildLocalizedDelaunay(triple);
  EXPECT_EQ(sorted(tripleLdel.gabrielEdges), sorted(bruteForce(triple, tripleLdel)));

  // A jittered lattice shifted by 1e6.
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> jitter(-0.2, 0.2);
  std::vector<geom::Vec2> shifted;
  for (int i = 0; i < 18; ++i) {
    for (int j = 0; j < 18; ++j) {
      shifted.push_back({1e6 + 0.45 * i + jitter(rng), 1e6 + 0.45 * j + jitter(rng)});
    }
  }
  const auto shiftedLdel = buildLocalizedDelaunay(shifted);
  ASSERT_FALSE(shiftedLdel.gabrielEdges.empty());
  EXPECT_EQ(sorted(shiftedLdel.gabrielEdges), sorted(bruteForce(shifted, shiftedLdel)));
}

// Four cocircular points (exact in binary) whose diagonals are a short
// chord and a long one: both survive the strict tests, and the planarizer
// must find the pair although the long chord's midpoint is far from the
// short chord's.
TEST(Ldel, PlanarizerFindsShortLongCrossing) {
  for (const double offset : {0.0, 1e6}) {
    std::vector<geom::Vec2> pts;
    for (const auto& [x, y] : {std::pair{25, 0}, {20, 15}, {24, 7}, {-25, 0}}) {
      pts.push_back({offset + x / 64.0, offset + y / 64.0});
    }
    const auto ldel = buildLocalizedDelaunay(pts);
    EXPECT_EQ(ldel.removedCrossings, 1) << "offset " << offset;
    EXPECT_TRUE(ldel.graph.hasEdge(0, 1)) << "offset " << offset;
    EXPECT_FALSE(ldel.graph.hasEdge(2, 3)) << "offset " << offset;
    const auto ref = testkit::referenceLocalizedDelaunay(pts);
    EXPECT_EQ(ldel.graph.edges(), ref.graph.edges()) << "offset " << offset;
    EXPECT_EQ(ldel.triangles, ref.triangles) << "offset " << offset;
  }
}

TEST(Ldel, SubgraphOfUdgAndSuperGraphOfGabriel) {
  auto sc = scenario::makeScenario(scenario::paramsForNodeCount(600, 14));
  const auto ldel = buildLocalizedDelaunay(sc.points);
  for (const auto& [u, v] : ldel.graph.edges()) {
    EXPECT_TRUE(ldel.udg.hasEdge(u, v));
    EXPECT_LE(ldel.graph.edgeLength(u, v), 1.0 + 1e-12);
  }
  for (const auto& [u, v] : ldel.gabrielEdges) {
    EXPECT_TRUE(ldel.graph.hasEdge(u, v));
  }
}

TEST(Ldel, TrianglesSatisfyLocalEmptiness) {
  auto sc = scenario::makeScenario(scenario::paramsForNodeCount(400, 15));
  const auto ldel = buildLocalizedDelaunay(sc.points);
  ASSERT_FALSE(ldel.triangles.empty());
  // Spot check a sample of triangles against the k-hop emptiness rule.
  std::mt19937 rng(2);
  std::uniform_int_distribution<std::size_t> pick(0, ldel.triangles.size() - 1);
  for (int it = 0; it < 40; ++it) {
    const auto& t = ldel.triangles[pick(rng)];
    const geom::Vec2 a = sc.points[static_cast<std::size_t>(t[0])];
    const geom::Vec2 b = sc.points[static_cast<std::size_t>(t[1])];
    const geom::Vec2 c = sc.points[static_cast<std::size_t>(t[2])];
    const int o = geom::orient(a, b, c);
    for (const int base : {t[0], t[1], t[2]}) {
      for (int x : graph::kHopNeighborhood(ldel.udg, base, 2)) {
        if (x == t[0] || x == t[1] || x == t[2]) continue;
        const int ic = geom::inCircle(a, b, c, sc.points[static_cast<std::size_t>(x)]);
        EXPECT_NE(o > 0 ? ic : -ic, 1);
      }
    }
  }
}

TEST(Ldel, PlanarConnectedSpanner) {
  auto sc = scenario::makeScenario(scenario::paramsForNodeCount(800, 16));
  const auto ldel = buildLocalizedDelaunay(sc.points);
  EXPECT_EQ(ldel.removedCrossings, 0);
  EXPECT_TRUE(ldel.graph.isPlanarEmbedding());
  EXPECT_TRUE(ldel.graph.isConnected());

  // Empirical spanner check vs the UDG (Thm 2.9 bound is 1.998).
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc.points.size()) - 1);
  for (int it = 0; it < 40; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s == t) continue;
    const double du = graph::shortestPathLength(ldel.udg, s, t);
    const double dl = graph::shortestPathLength(ldel.graph, s, t);
    EXPECT_LE(dl, 1.998 * du + 1e-9);
  }
}

}  // namespace
}  // namespace hybrid::delaunay
