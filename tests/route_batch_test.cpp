#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/hybrid_network.hpp"
#include "graph/csr.hpp"
#include "routing/baselines.hpp"
#include "routing/overlay_graph.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "testkit/oracles.hpp"

namespace hybrid::routing {
namespace {

bool sameResult(const RouteResult& a, const RouteResult& b) {
  return a.path == b.path && a.delivered == b.delivered &&
         a.blockedHole == b.blockedHole && a.fallbacks == b.fallbacks &&
         a.bayExtremePoints == b.bayExtremePoints && a.protocolCase == b.protocolCase;
}

std::vector<RoutePair> randomPairs(std::size_t n, unsigned seed, std::size_t count) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
  std::vector<RoutePair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.push_back({pick(rng), pick(rng)});
  }
  return pairs;
}

class RouteBatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::ScenarioParams p;
    p.width = p.height = 12.0;
    p.seed = 33;
    p.obstacles.push_back(scenario::uShapeObstacle({6.0, 5.0}, 4.0, 3.5, 0.8));
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

scenario::Scenario* RouteBatchFixture::sc_ = nullptr;
core::HybridNetwork* RouteBatchFixture::net_ = nullptr;

TEST_F(RouteBatchFixture, HybridRouterBatchIsIdenticalToSerialAtAnyThreadCount) {
  const auto pairs = randomPairs(net_->ldel().numNodes(), 9, 48);
  const Router& router = net_->router();

  std::vector<RouteResult> serial;
  serial.reserve(pairs.size());
  for (const auto& p : pairs) serial.push_back(router.route(p.source, p.target));

  for (const int threads : {1, 2, 8}) {
    const auto batch = router.routeBatch(pairs, threads);
    ASSERT_EQ(batch.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameResult(batch[i], serial[i]))
          << "threads=" << threads << " pair=" << i << " (" << pairs[i].source
          << " -> " << pairs[i].target << ")";
    }
  }
}

TEST_F(RouteBatchFixture, VisibilityOverlayRouterBatchMatchesSerial) {
  // The incremental overlay serving path under concurrency: the
  // workspace-per-thread hub-label queries must stay deterministic across
  // thread counts.
  const auto router =
      net_->makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Visibility});
  const auto pairs = randomPairs(net_->ldel().numNodes(), 21, 32);

  std::vector<RouteResult> serial;
  for (const auto& p : pairs) serial.push_back(router->route(p.source, p.target));
  for (const int threads : {1, 2, 8}) {
    const auto batch = router->routeBatch(pairs, threads);
    ASSERT_EQ(batch.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameResult(batch[i], serial[i])) << "threads=" << threads << " pair=" << i;
    }
  }
}

TEST_F(RouteBatchFixture, HubLabelOverlayRouterBatchMatchesSerial) {
  // The label-served overlay on every hole node: batches stay
  // deterministic across thread counts, and the labels behind those routes
  // answer every site pair like the dense reference table.
  const auto router =
      net_->makeRouter({.sites = SiteMode::AllHoleNodes, .edges = EdgeMode::Visibility});
  const OverlayGraph& overlay = router->overlay();
  ASSERT_TRUE(overlay.hubLabels().built());
  const auto pairs = randomPairs(net_->ldel().numNodes(), 27, 32);

  std::vector<RouteResult> serial;
  for (const auto& p : pairs) serial.push_back(router->route(p.source, p.target));
  for (const int threads : {1, 2, 8}) {
    const auto batch = router->routeBatch(pairs, threads);
    ASSERT_EQ(batch.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameResult(batch[i], serial[i])) << "threads=" << threads << " pair=" << i;
    }
  }

  const testkit::SiteTable dense = testkit::referenceSiteTable(
      graph::buildCsr(overlay.siteAdjacency(), overlay.sitePositions()), 2);
  const int h = static_cast<int>(overlay.sites().size());
  ASSERT_EQ(dense.h, overlay.sites().size());
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < h; ++j) {
      const double d = dense.distance(i, j);
      const double l = overlay.sitePairDistance(i, j);
      if (std::isinf(d)) {
        EXPECT_TRUE(std::isinf(l)) << "pair " << i << "," << j;
      } else {
        EXPECT_NEAR(l, d, 1e-9 * std::max(1.0, d)) << "pair " << i << "," << j;
      }
    }
  }
}

TEST_F(RouteBatchFixture, BaselineRouterBatchMatchesSerial) {
  const GreedyRouter greedy(net_->udg());
  const auto pairs = randomPairs(net_->udg().numNodes(), 4, 40);

  std::vector<RouteResult> serial;
  for (const auto& p : pairs) serial.push_back(greedy.route(p.source, p.target));
  for (const int threads : {2, 8}) {
    const auto batch = greedy.routeBatch(pairs, threads);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameResult(batch[i], serial[i])) << "pair=" << i;
    }
  }
}

TEST_F(RouteBatchFixture, NetworkFacadeBatchAndEdgeCases) {
  EXPECT_TRUE(net_->routeBatch({}, 4).empty());

  const std::vector<RoutePair> pairs{{0, 0}, {0, 1}};
  const auto res = net_->routeBatch(pairs, 2);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_TRUE(sameResult(res[0], net_->route(0, 0)));
  EXPECT_TRUE(sameResult(res[1], net_->route(0, 1)));
}

}  // namespace
}  // namespace hybrid::routing
