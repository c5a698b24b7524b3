#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dijkstra_workspace.hpp"
#include "graph/graph.hpp"
#include "routing/hub_labels.hpp"

namespace hybrid::routing {
namespace {

/// Jittered w x h grid with 4-neighbor edges: irregular weights, many
/// equal-degree nodes (the rank tie-break's worst customer).
graph::CsrAdjacency makeGrid(int w, int h, unsigned seed,
                             std::vector<geom::Vec2>* posOut = nullptr) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(-0.3, 0.3);
  std::vector<geom::Vec2> pos;
  pos.reserve(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      pos.push_back({x + jitter(rng), y + jitter(rng)});
    }
  }
  std::vector<std::vector<int>> adj(pos.size());
  const auto id = [&](int x, int y) { return y * w + x; };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) {
        adj[static_cast<std::size_t>(id(x, y))].push_back(id(x + 1, y));
        adj[static_cast<std::size_t>(id(x + 1, y))].push_back(id(x, y));
      }
      if (y + 1 < h) {
        adj[static_cast<std::size_t>(id(x, y))].push_back(id(x, y + 1));
        adj[static_cast<std::size_t>(id(x, y + 1))].push_back(id(x, y));
      }
    }
  }
  if (posOut) *posOut = pos;
  return graph::buildCsr(adj, pos);
}

/// n nodes on a unit circle, consecutive edges only. Uniform degree 2:
/// labels stay polylogarithmic only because the rank tie-break is hashed.
graph::CsrAdjacency makeRing(int n) {
  std::vector<geom::Vec2> pos;
  pos.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    pos.push_back({std::cos(a), std::sin(a)});
  }
  std::vector<std::vector<int>> adj(pos.size());
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    adj[static_cast<std::size_t>(i)].push_back(j);
    adj[static_cast<std::size_t>(j)].push_back(i);
  }
  return graph::buildCsr(adj, pos);
}

TEST(HubLabels, BuildIsByteIdenticalAtAnyThreadCount) {
  const auto csr = makeGrid(18, 17, 7);
  HubLabelOracle ref;
  ref.build(csr, 1);
  ASSERT_TRUE(ref.built());
  ASSERT_GT(ref.numEntries(), csr.numNodes());  // more than just self entries
  for (const unsigned threads : {2u, 5u, 16u}) {
    HubLabelOracle other;
    other.build(csr, threads);
    EXPECT_EQ(other.offsets(), ref.offsets()) << "threads=" << threads;
    EXPECT_EQ(other.entries(), ref.entries()) << "threads=" << threads;
  }
}

TEST(HubLabels, DistancesAndPathsMatchDijkstra) {
  for (const bool ring : {false, true}) {
    const auto csr = ring ? makeRing(257) : makeGrid(15, 14, 3);
    const int n = static_cast<int>(csr.numNodes());
    HubLabelOracle labels;
    labels.build(csr, 3);

    graph::DijkstraWorkspace ws;
    std::mt19937 rng(11);
    std::uniform_int_distribution<int> pick(0, n - 1);
    std::vector<int> path;
    for (int a = 0; a < 8; ++a) {
      const int s = pick(rng);
      ws.run(csr, s);
      for (int b = 0; b < 12; ++b) {
        const int t = b == 0 ? s : pick(rng);
        const double want = ws.dist(t);
        EXPECT_NEAR(labels.distance(s, t), want, 1e-9 * std::max(1.0, want))
            << "ring=" << ring << " " << s << "->" << t;
        path.clear();
        ASSERT_TRUE(labels.path(s, t, path)) << s << "->" << t;
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), t);
        // Path edges must be real graph edges realizing the distance.
        double len = 0.0;
        for (std::size_t k = 0; k + 1 < path.size(); ++k) {
          const auto nbs = csr.neighbors(path[k]);
          const auto wts = csr.edgeWeights(path[k]);
          double step = -1.0;
          for (std::size_t e = 0; e < nbs.size(); ++e) {
            if (nbs[e] == path[k + 1]) step = wts[e];
          }
          ASSERT_GE(step, 0.0) << "non-edge " << path[k] << "-" << path[k + 1];
          len += step;
        }
        EXPECT_NEAR(len, want, 1e-9 * std::max(1.0, want));
      }
    }
  }
}

TEST(HubLabels, DisconnectedComponentsHaveNoCommonHub) {
  // Two 3-node triangles with no connecting edge.
  const std::vector<geom::Vec2> pos = {{0, 0}, {1, 0}, {0, 1}, {10, 10}, {11, 10}, {10, 11}};
  std::vector<std::vector<int>> adj(6);
  const auto link = [&](int a, int b) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  };
  link(0, 1);
  link(1, 2);
  link(2, 0);
  link(3, 4);
  link(4, 5);
  link(5, 3);
  HubLabelOracle labels;
  labels.build(graph::buildCsr(adj, pos), 2);
  EXPECT_TRUE(std::isinf(labels.distance(0, 4)));
  EXPECT_TRUE(std::isinf(labels.distance(5, 2)));
  std::vector<int> path;
  EXPECT_FALSE(labels.path(0, 4, path));
  EXPECT_TRUE(path.empty());
  EXPECT_LT(labels.distance(0, 2), 2.0);  // within-component stays exact
}

TEST(HubLabels, RingLabelsStayPolylogarithmic) {
  // Uniform degree: every rank decision rides on the hashed tie-break. A
  // monotone (raw-id) order would give Theta(h) labels — ~n^2/2 entries;
  // the hashed order keeps the average label a small multiple of log2(n).
  const int n = 2048;
  const auto csr = makeRing(n);
  HubLabelOracle labels;
  labels.build(csr, 4);
  const double avg = static_cast<double>(labels.numEntries()) / n;
  EXPECT_LT(avg, 8.0 * std::log2(static_cast<double>(n)));
  EXPECT_LT(labels.labelBytes(), static_cast<std::size_t>(n) * n);  // << dense 8B*n/site
}

TEST(HubLabels, EmptyGraphBuilds) {
  HubLabelOracle labels;
  labels.build(graph::CsrAdjacency{}, 2);
  EXPECT_TRUE(labels.built());
  EXPECT_EQ(labels.numSites(), 0u);
  EXPECT_EQ(labels.numEntries(), 0u);
}

TEST(HubLabels, CorruptionIsDetectableAndPathsFailClean) {
  const auto csr = makeGrid(9, 9, 5);
  HubLabelOracle good;
  good.build(csr, 2);
  HubLabelOracle bad;
  bad.build(csr, 2);
  const auto dropped = bad.corruptDropHubForTest(17);
  ASSERT_GE(dropped.site, 0);
  ASSERT_NE(dropped.site, dropped.hub);
  EXPECT_NE(bad.entries(), good.entries());
  EXPECT_EQ(bad.numEntries() + 1, good.numEntries());
  // Every query still terminates and any returned path is still realizable.
  std::vector<int> path;
  const int n = static_cast<int>(csr.numNodes());
  for (int t = 0; t < n; ++t) {
    path.clear();
    if (!bad.path(dropped.site, t, path)) continue;
    EXPECT_EQ(path.front(), dropped.site);
    EXPECT_EQ(path.back(), t);
    EXPECT_LE(path.size(), static_cast<std::size_t>(2 * n + 4));
  }
}

}  // namespace
}  // namespace hybrid::routing
