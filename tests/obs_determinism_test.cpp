// Observability must never perturb behavior: simulator traces, fault
// schedules and routing outputs are byte-identical with metrics on or off,
// serial and threaded (the tentpole invariant of src/obs).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/hybrid_network.hpp"
#include "delaunay/udg.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/reliable.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace hybrid {
namespace {

class ObsFlagGuard {
 public:
  ~ObsFlagGuard() {
    obs::setEnabled(false);
    obs::Registry::global().reset();
    obs::Tracer::global().reset();
  }
};

graph::GeometricGraph gridGraph(int side) {
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) pts.push_back({0.9 * x, 0.9 * y});
  }
  return delaunay::buildUnitDiskGraph(pts, 1.0);
}

// Every node floods a token once; plenty of concurrent traffic for the
// fault layer to act on.
class FloodProtocol : public sim::Protocol {
 public:
  explicit FloodProtocol(std::size_t n) : has_(n, 0) {}

  void onStart(sim::Context& ctx) override {
    if (ctx.self() != 0) return;
    has_[0] = 1;
    forward(ctx);
  }
  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    if (m.type != 7 || has_[static_cast<std::size_t>(ctx.self())] != 0) return;
    has_[static_cast<std::size_t>(ctx.self())] = 1;
    forward(ctx);
  }

 private:
  void forward(sim::Context& ctx) {
    for (int nb : ctx.udgNeighbors()) {
      sim::Message m;
      m.type = 7;
      m.ints = {static_cast<std::int64_t>(ctx.self())};
      ctx.sendAdHoc(nb, std::move(m));
    }
  }
  std::vector<char> has_;
};

sim::FaultPlan noisyPlan() {
  sim::FaultConfig cfg;
  cfg.seed = 1234;
  cfg.adHocDrop = 0.08;
  cfg.adHocDuplicate = 0.05;
  cfg.adHocDelay = 0.05;
  cfg.crashes.push_back({3, 1, 3});
  return sim::FaultPlan(cfg);
}

std::string runFloodTrace(bool metricsOn, int threads) {
  obs::setEnabled(metricsOn && obs::kCompiledIn);
  const auto g = gridGraph(7);
  sim::Simulator s(g, noisyPlan());
  s.setThreads(threads);
  s.setAllowOversubscribe(true);  // keep the parallel path real on small boxes
  s.enableTrace();
  FloodProtocol proto(g.numNodes());
  s.run(proto);
  obs::setEnabled(false);
  return s.trace();
}

TEST(ObsDeterminism, SimTraceIdenticalWithMetricsOnAndOffSerial) {
  ObsFlagGuard guard;
  EXPECT_EQ(runFloodTrace(false, 1), runFloodTrace(true, 1));
}

TEST(ObsDeterminism, SimTraceIdenticalWithMetricsOnAndOffThreaded) {
  ObsFlagGuard guard;
  const std::string off = runFloodTrace(false, 4);
  const std::string on = runFloodTrace(true, 4);
  EXPECT_EQ(off, on);
  // And thread count never changes the trace either way.
  EXPECT_EQ(on, runFloodTrace(true, 1));
}

struct LdelRun {
  protocols::DistributedLdel ldel;
  std::string trace;
};

// LDel^2 under the ARQ transport on noisyPlan()'s lossy channels.
LdelRun runLossyLdel(const graph::GeometricGraph& udg, double radius, bool metricsOn,
                     int threads) {
  obs::setEnabled(metricsOn && obs::kCompiledIn);
  sim::Simulator s(udg, noisyPlan());
  s.setThreads(threads);
  s.setAllowOversubscribe(true);
  s.enableTrace();
  const protocols::RetryPolicy retry;
  LdelRun r{protocols::runLdelConstruction(s, radius, &retry), {}};
  obs::setEnabled(false);
  r.trace = s.trace();
  return r;
}

bool sameLdel(const protocols::DistributedLdel& a, const protocols::DistributedLdel& b) {
  if (a.graph.numNodes() != b.graph.numNodes()) return false;
  for (int v = 0; v < static_cast<int>(a.graph.numNodes()); ++v) {
    if (!std::ranges::equal(a.graph.neighbors(v), b.graph.neighbors(v))) return false;
  }
  return a.isBoundary == b.isBoundary && a.gaps == b.gaps && a.rounds == b.rounds &&
         a.messages == b.messages && a.retransmissions == b.retransmissions;
}

TEST(ObsDeterminism, LossyLdelIdenticalWithMetricsOnAndOff) {
  ObsFlagGuard guard;
  const auto sc = scenario::makeScenario(scenario::paramsForNodeCount(150, 17));
  const auto udg = delaunay::buildUnitDiskGraph(sc.points, sc.radius);
  const LdelRun off = runLossyLdel(udg, sc.radius, false, 1);
  ASSERT_GT(off.ldel.retransmissions, 0);  // the plan bites
  for (const int threads : {1, 2}) {
    const LdelRun on = runLossyLdel(udg, sc.radius, true, threads);
    EXPECT_TRUE(sameLdel(off.ldel, on.ldel)) << "threads=" << threads;
    EXPECT_EQ(off.trace, on.trace) << "threads=" << threads;
  }
  if (!obs::kCompiledIn) return;
  // The simulator run and the assembly nest under the protocol's span.
  std::vector<std::string> paths;
  for (const auto& [path, stats] : obs::Tracer::global().spanValues()) paths.push_back(path);
  EXPECT_NE(std::ranges::find(paths, "proto.ldel/sim.run"), paths.end());
  EXPECT_NE(std::ranges::find(paths, "proto.ldel/assemble"), paths.end());
}

bool sameResult(const routing::RouteResult& a, const routing::RouteResult& b) {
  return a.path == b.path && a.delivered == b.delivered &&
         a.blockedHole == b.blockedHole && a.fallbacks == b.fallbacks &&
         a.bayExtremePoints == b.bayExtremePoints && a.protocolCase == b.protocolCase;
}

TEST(ObsDeterminism, RouteBatchIdenticalWithMetricsOnAndOff) {
  ObsFlagGuard guard;

  scenario::ScenarioParams p;
  p.width = p.height = 12.0;
  p.seed = 33;
  p.obstacles.push_back(scenario::uShapeObstacle({6.0, 5.0}, 4.0, 3.5, 0.8));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  const auto router = net.makeRouter(
      {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});

  std::vector<routing::RoutePair> pairs;
  const int n = static_cast<int>(net.ldel().numNodes());
  for (int i = 0; i < 60; ++i) pairs.push_back({(7 * i) % n, (13 * i + 5) % n});

  obs::setEnabled(false);
  const auto offSerial = router->routeBatch(pairs, 1);
  const auto offThreaded = router->routeBatch(pairs, 4);
  obs::setEnabled(obs::kCompiledIn);
  const auto onSerial = router->routeBatch(pairs, 1);
  const auto onThreaded = router->routeBatch(pairs, 4);
  obs::setEnabled(false);

  ASSERT_EQ(offSerial.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(sameResult(offSerial[i], onSerial[i])) << "pair " << i;
    EXPECT_TRUE(sameResult(offSerial[i], onThreaded[i])) << "pair " << i;
    EXPECT_TRUE(sameResult(offSerial[i], offThreaded[i])) << "pair " << i;
  }
}

}  // namespace
}  // namespace hybrid
