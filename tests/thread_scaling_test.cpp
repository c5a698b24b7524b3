// Thread-scaling regression tests for the two parallel hot paths: the
// destination-sharded simulator rounds and Router::routeBatch.
//
// Two layers:
//  - Determinism (always on, TSan included): traces / batch results at
//    {1, 2, 4, 8} threads are byte-identical to serial.
//  - Wall clock (Release-only, no sanitizers, >= 2 hardware threads):
//    stepping with every core must beat 1 thread outright. Debug and
//    sanitizer builds skip — their overhead is not what we gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid_network.hpp"
#include "delaunay/udg.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HYBRID_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HYBRID_TEST_SANITIZED 1
#endif
#endif
#ifndef HYBRID_TEST_SANITIZED
#define HYBRID_TEST_SANITIZED 0
#endif

namespace hybrid {
namespace {

graph::GeometricGraph gridGraph(int side) {
  std::vector<geom::Vec2> pts;
  pts.reserve(static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) pts.push_back({0.9 * x, 0.9 * y});
  }
  return delaunay::buildUnitDiskGraph(pts, 1.0);
}

/// e17-style round workload: neighbor gossip with ID introductions plus
/// occasional long-range replies, and a per-message compute kernel so the
/// wall-clock comparison measures parallel protocol work, not only the
/// simulator's own bookkeeping.
class GossipProtocol : public sim::Protocol {
 public:
  GossipProtocol(std::size_t n, int rounds, int workPerMessage)
      : rounds_(rounds), work_(workPerMessage), heard_(n, 0), digest_(n, 0) {}

  void onStart(sim::Context& ctx) override { gossip(ctx); }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    const auto self = static_cast<std::size_t>(ctx.self());
    ++heard_[self];
    std::uint64_t h = digest_[self] ^ static_cast<std::uint64_t>(m.from * 2654435761u);
    for (int i = 0; i < work_; ++i) h = h * 1099511628211ull + 1469598103934665603ull;
    digest_[self] = h;
    if (m.type == kGossip && !m.ids.empty() && heard_[self] % 3 == 0) {
      const int target = m.ids.back();
      if (target != ctx.self() && ctx.knows(target)) {
        sim::Message reply;
        reply.type = kReply;
        reply.ints = {static_cast<std::int64_t>(h & 0xffff)};
        ctx.sendLongRange(target, std::move(reply));
      }
    }
  }

  void onRoundEnd(sim::Context& ctx) override {
    if (ctx.round() < rounds_) gossip(ctx);
  }

  std::uint64_t fingerprint() const {
    std::uint64_t f = 1469598103934665603ull;
    for (std::size_t v = 0; v < digest_.size(); ++v) {
      f = (f ^ digest_[v] ^ static_cast<std::uint64_t>(heard_[v])) * 1099511628211ull;
    }
    return f;
  }

 private:
  static constexpr int kGossip = 1;
  static constexpr int kReply = 2;

  void gossip(sim::Context& ctx) {
    const auto nbs = ctx.udgNeighbors();
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      sim::Message m;
      m.type = kGossip;
      m.ints = {static_cast<std::int64_t>(ctx.round())};
      m.ids.push_back(nbs[(i + 1) % nbs.size()]);
      ctx.sendAdHoc(nbs[i], std::move(m));
    }
  }

  int rounds_;
  int work_;
  std::vector<long> heard_;
  std::vector<std::uint64_t> digest_;
};

struct SimRun {
  std::string trace;
  long totalMessages = 0;
  std::uint64_t fingerprint = 0;
  int rounds = 0;
};

SimRun runSim(const graph::GeometricGraph& g, int threads, int rounds, bool trace,
              int workPerMessage) {
  sim::Simulator sim(g);
  sim.setThreads(threads);
  sim.setAllowOversubscribe(true);  // the determinism layer must not quietly
                                    // degrade to serial on small boxes
  if (trace) sim.enableTrace();
  GossipProtocol proto(g.numNodes(), rounds, workPerMessage);
  SimRun r;
  r.rounds = sim.run(proto, rounds + 4);
  r.trace = sim.trace();
  r.totalMessages = sim.totalMessages();
  r.fingerprint = proto.fingerprint();
  return r;
}

TEST(ThreadScaling, SimTraceByteIdenticalAtOneTwoFourEightThreads) {
  const auto g = gridGraph(12);
  const SimRun serial = runSim(g, 1, 10, true, 16);
  ASSERT_FALSE(serial.trace.empty());
  for (const int t : {2, 4, 8}) {
    const SimRun parallel = runSim(g, t, 10, true, 16);
    EXPECT_EQ(parallel.trace, serial.trace) << "threads=" << t;
    EXPECT_EQ(parallel.totalMessages, serial.totalMessages) << "threads=" << t;
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << "threads=" << t;
    EXPECT_EQ(parallel.rounds, serial.rounds) << "threads=" << t;
  }
}

core::HybridNetwork batchNetwork() {
  scenario::ScenarioParams p;
  p.width = p.height = 14.0;
  p.seed = 77;
  p.obstacles.push_back(scenario::uShapeObstacle({7.0, 6.0}, 4.0, 3.5, 0.8));
  const auto sc = scenario::makeScenario(p);
  return core::HybridNetwork(sc.points);
}

std::vector<routing::RoutePair> batchPairs(const core::HybridNetwork& net, int count) {
  std::vector<routing::RoutePair> pairs;
  const int n = static_cast<int>(net.ldel().numNodes());
  pairs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) pairs.push_back({(7 * i) % n, (13 * i + 5) % n});
  return pairs;
}

bool sameResult(const routing::RouteResult& a, const routing::RouteResult& b) {
  return a.path == b.path && a.delivered == b.delivered &&
         a.blockedHole == b.blockedHole && a.fallbacks == b.fallbacks &&
         a.bayExtremePoints == b.bayExtremePoints && a.protocolCase == b.protocolCase;
}

TEST(ThreadScaling, RouteBatchIdenticalAtOneTwoFourEightThreads) {
  const auto net = batchNetwork();
  const auto router = net.makeRouter(
      {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
  const auto pairs = batchPairs(net, 96);
  const auto serial = router->routeBatch(pairs, 1);
  ASSERT_EQ(serial.size(), pairs.size());
  for (const int t : {2, 4, 8}) {
    const auto parallel = router->routeBatch(pairs, t);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameResult(serial[i], parallel[i])) << "threads=" << t << " pair " << i;
    }
  }
}

#if defined(NDEBUG) && !HYBRID_TEST_SANITIZED
constexpr bool kWallClockEligible = true;
#else
constexpr bool kWallClockEligible = false;
#endif

template <typename F>
double bestOfSeconds(int reps, F&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

TEST(ThreadScaling, SimRoundsWallClockBeatsSerial) {
  if (!kWallClockEligible) {
    GTEST_SKIP() << "wall-clock assertion runs in Release without sanitizers only";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs >= 2 hardware threads";
  const int threads = static_cast<int>(std::min(8u, hw));  // no oversubscription
  const auto g = gridGraph(40);
  const double serial = bestOfSeconds(3, [&] { runSim(g, 1, 24, false, 64); });
  const double parallel =
      bestOfSeconds(3, [&] { runSim(g, threads, 24, false, 64); });
  EXPECT_LT(parallel, serial) << "threads=" << threads << " serial=" << serial
                              << "s parallel=" << parallel << "s";
}

TEST(ThreadScaling, RouteBatchWallClockBeatsSerial) {
  if (!kWallClockEligible) {
    GTEST_SKIP() << "wall-clock assertion runs in Release without sanitizers only";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs >= 2 hardware threads";
  const int threads = static_cast<int>(std::min(8u, hw));
  const auto net = batchNetwork();
  const auto router = net.makeRouter(
      {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
  const auto pairs = batchPairs(net, 2048);
  const double serial = bestOfSeconds(3, [&] { router->routeBatch(pairs, 1); });
  const double parallel = bestOfSeconds(3, [&] { router->routeBatch(pairs, threads); });
  EXPECT_LT(parallel, serial) << "threads=" << threads << " serial=" << serial
                              << "s parallel=" << parallel << "s";
}

}  // namespace
}  // namespace hybrid
