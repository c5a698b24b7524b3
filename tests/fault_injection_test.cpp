#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/hybrid_network.hpp"
#include "delaunay/udg.hpp"
#include "protocols/dominating_set_protocol.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/reliable.hpp"
#include "protocols/ring_pipeline.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace hybrid {
namespace {

// A line of n nodes spaced 0.9 apart: every node is a UDG neighbor of its
// direct predecessor/successor only.
graph::GeometricGraph lineGraph(int n) {
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({0.9 * i, 0.0});
  return delaunay::buildUnitDiskGraph(pts, 1.0);
}

// Node 0 floods a token over ad hoc edges; each node forwards it once.
class FloodProtocol : public sim::Protocol {
 public:
  static constexpr int kToken = 7;
  explicit FloodProtocol(std::size_t n) : has_(n, 0) {}

  void onStart(sim::Context& ctx) override {
    if (ctx.self() != 0) return;
    has_[0] = 1;
    forward(ctx);
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    if (m.type != kToken || has_[static_cast<std::size_t>(ctx.self())] != 0) return;
    has_[static_cast<std::size_t>(ctx.self())] = 1;
    forward(ctx);
  }

  int reached() const {
    return static_cast<int>(std::count(has_.begin(), has_.end(), 1));
  }
  bool complete() const { return reached() == static_cast<int>(has_.size()); }

 private:
  void forward(sim::Context& ctx) {
    for (int nb : ctx.udgNeighbors()) {
      sim::Message m;
      m.type = kToken;
      m.ints = {42};
      ctx.sendAdHoc(nb, std::move(m));
    }
  }

  std::vector<char> has_;
};

// ---------------------------------------------------------------------------
// FaultPlan unit behavior.
// ---------------------------------------------------------------------------

TEST(FaultPlan, InactiveByDefaultAndWithZeroRates) {
  EXPECT_FALSE(sim::FaultPlan().active());
  sim::FaultConfig zero;
  zero.seed = 123456;  // a seed alone causes no faults
  EXPECT_FALSE(sim::FaultPlan(zero).active());

  sim::FaultConfig cfg = zero;
  cfg.adHocDrop = 0.01;
  EXPECT_TRUE(sim::FaultPlan(cfg).active());
  cfg = zero;
  cfg.crashes.push_back({3, 1, 5});
  EXPECT_TRUE(sim::FaultPlan(cfg).active());
  cfg = zero;
  cfg.blackouts.push_back({2, 4});
  EXPECT_TRUE(sim::FaultPlan(cfg).active());
}

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedRoundIndex) {
  sim::FaultConfig cfg;
  cfg.seed = 77;
  cfg.adHocDrop = 0.2;
  cfg.adHocDuplicate = 0.1;
  cfg.adHocDelay = 0.1;
  const sim::FaultPlan a(cfg), b(cfg);
  sim::Message m;
  m.link = sim::Link::AdHoc;
  int dropped = 0;
  for (int round = 1; round <= 50; ++round) {
    for (std::size_t i = 0; i < 40; ++i) {
      int da = 0, db = 0;
      const auto fa = a.decide(round, i, m, &da);
      // Querying out of order (b after a, twice) must not matter.
      const auto fb = b.decide(round, i, m, &db);
      EXPECT_EQ(fa, b.decide(round, i, m, &db));
      EXPECT_EQ(fa, fb);
      EXPECT_EQ(da, db);
      if (fa == sim::FaultAction::Drop) ++dropped;
      if (fa == sim::FaultAction::Delay) {
        EXPECT_GE(da, 1);
        EXPECT_LE(da, cfg.maxDelayRounds);
      }
    }
  }
  // 2000 samples at 20%: the empirical rate should be in the ballpark.
  EXPECT_GT(dropped, 2000 * 0.12);
  EXPECT_LT(dropped, 2000 * 0.30);
}

TEST(FaultPlan, CrashAndBlackoutIntervalsAreHalfOpen) {
  sim::FaultConfig cfg;
  cfg.crashes.push_back({5, 2, 4});
  cfg.blackouts.push_back({3, 6});
  const sim::FaultPlan p(cfg);
  EXPECT_FALSE(p.crashed(5, 1));
  EXPECT_TRUE(p.crashed(5, 2));
  EXPECT_TRUE(p.crashed(5, 3));
  EXPECT_FALSE(p.crashed(5, 4));
  EXPECT_FALSE(p.crashed(4, 3));
  EXPECT_FALSE(p.blackedOut(2));
  EXPECT_TRUE(p.blackedOut(3));
  EXPECT_TRUE(p.blackedOut(5));
  EXPECT_FALSE(p.blackedOut(6));
}

// ---------------------------------------------------------------------------
// Simulator integration: trace determinism.
// ---------------------------------------------------------------------------

TEST(FaultTrace, ZeroRatePlanIsBitIdenticalToNoPlan) {
  const auto udg = lineGraph(12);

  sim::Simulator plain(udg);
  plain.enableTrace();
  FloodProtocol f1(udg.numNodes());
  plain.run(f1);

  sim::FaultConfig zero;
  zero.seed = 99;  // seed set, all rates zero: must not perturb anything
  sim::Simulator seeded(udg, sim::FaultPlan(zero));
  seeded.enableTrace();
  FloodProtocol f2(udg.numNodes());
  seeded.run(f2);

  EXPECT_TRUE(f1.complete());
  EXPECT_TRUE(f2.complete());
  EXPECT_FALSE(plain.trace().empty());
  EXPECT_EQ(plain.trace(), seeded.trace());
}

sim::FaultConfig lossyConfig(std::uint64_t seed) {
  sim::FaultConfig cfg;
  cfg.seed = seed;
  cfg.adHocDrop = 0.2;
  cfg.adHocDuplicate = 0.1;
  cfg.adHocDelay = 0.1;
  return cfg;
}

std::string tracedReliableFlood(const graph::GeometricGraph& udg, std::uint64_t seed) {
  sim::Simulator s(udg, sim::FaultPlan(lossyConfig(seed)));
  s.enableTrace();
  FloodProtocol flood(udg.numNodes());
  protocols::ReliableProtocol reliable(s, flood);
  s.run(reliable);
  EXPECT_TRUE(flood.complete());
  return s.trace();
}

TEST(FaultTrace, SameSeedProducesByteIdenticalRuns) {
  const auto udg = lineGraph(16);
  const std::string t1 = tracedReliableFlood(udg, 4242);
  const std::string t2 = tracedReliableFlood(udg, 4242);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);  // byte-identical, including every fault event
}

TEST(FaultTrace, DifferentSeedsProduceDifferentSchedules) {
  const auto udg = lineGraph(16);
  EXPECT_NE(tracedReliableFlood(udg, 1), tracedReliableFlood(udg, 2));
}

// ---------------------------------------------------------------------------
// Simulator integration: fault semantics and accounting.
// ---------------------------------------------------------------------------

TEST(FaultSemantics, CertainDropLosesEveryAdHocMessage) {
  const auto udg = lineGraph(8);
  sim::FaultConfig cfg;
  cfg.seed = 7;
  cfg.adHocDrop = 1.0;
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  FloodProtocol flood(udg.numNodes());
  s.run(flood);
  EXPECT_EQ(flood.reached(), 1);  // only the origin has the token
  EXPECT_EQ(s.totalDropped(), s.totalMessages());
  EXPECT_GT(s.stats()[0].droppedAdHoc, 0);  // charged to the sender
}

TEST(FaultSemantics, DuplicateDeliversTwiceAndCounts) {
  const auto udg = lineGraph(2);
  sim::FaultConfig cfg;
  cfg.seed = 7;
  cfg.adHocDuplicate = 1.0;
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  s.enableTrace();
  FloodProtocol flood(udg.numNodes());
  s.run(flood);
  EXPECT_TRUE(flood.complete());
  EXPECT_GT(s.stats()[0].duplicated, 0);
  // The duplicated token shows up as two deliveries of the same message.
  const auto& tr = s.trace();
  std::size_t deliveries = 0;
  for (std::size_t pos = 0; (pos = tr.find("RX 0>1", pos)) != std::string::npos; ++pos) {
    ++deliveries;
  }
  EXPECT_EQ(deliveries, 2u);
}

TEST(FaultSemantics, DelayDefersButEventuallyDelivers) {
  const auto udg = lineGraph(6);
  sim::FaultConfig cfg;
  cfg.seed = 11;
  cfg.adHocDelay = 1.0;  // every hop deferred 1..maxDelayRounds extra rounds
  cfg.maxDelayRounds = 3;
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  FloodProtocol flood(udg.numNodes());
  const int rounds = s.run(flood);
  EXPECT_TRUE(flood.complete());  // delay is lossless
  EXPECT_GT(rounds, 5);           // a 5-hop line takes 5 rounds fault-free
  long delayed = 0;
  for (const auto& st : s.stats()) delayed += st.delayed;
  EXPECT_GE(delayed, 5);
}

TEST(FaultSemantics, CrashedReceiverLosesMessagesUntilRecovery) {
  const auto udg = lineGraph(3);
  sim::FaultConfig cfg;
  cfg.crashes.push_back({1, 0, 4});  // node 1 down for rounds 0..3
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  FloodProtocol flood(udg.numNodes());
  s.run(flood);
  // The token died at the crashed relay and nothing retries.
  EXPECT_EQ(flood.reached(), 1);
  EXPECT_GT(s.stats()[0].droppedAdHoc, 0);

  // The same topology with the reliable transport: retransmissions outlive
  // the crash window and the flood completes after recovery.
  sim::Simulator s2(udg, sim::FaultPlan(cfg));
  FloodProtocol flood2(udg.numNodes());
  protocols::ReliableProtocol reliable(s2, flood2);
  const int rounds = s2.run(reliable);
  EXPECT_TRUE(flood2.complete());
  EXPECT_GE(rounds, 4);  // cannot finish before the crash interval ends
  EXPECT_GT(reliable.stats().retransmissions, 0);
}

TEST(FaultSemantics, DelayedMessageIsLostToACrashThatStartsBeforeItIsDue) {
  const auto udg = lineGraph(2);
  sim::FaultConfig cfg;
  cfg.seed = 3;
  cfg.adHocDelay = 1.0;              // every ad hoc message is deferred...
  cfg.maxDelayRounds = 1;            // ...by exactly one round, to round 2
  cfg.crashes.push_back({1, 2, 3});  // the receiver is down in round 2 only
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  s.enableTrace();
  FloodProtocol flood(udg.numNodes());
  s.run(flood);
  // A message cannot outlive its receiver: the crash check runs again
  // when the delayed token falls due, and the loss is the sender's.
  EXPECT_EQ(flood.reached(), 1);
  EXPECT_EQ(s.trace(), "R1 DL 0>1 a t7 q-1 i42\nR2 XC 0>1 a t7 q-1 i42\n");
  EXPECT_EQ(s.stats()[0].delayed, 1);
  EXPECT_EQ(s.stats()[0].droppedAdHoc, 1);
  EXPECT_EQ(s.totalDropped(), 1);
}

namespace longrange {

// Node 0 pushes one long-range token to node 1 per round, `total` times.
class Pusher : public sim::Protocol {
 public:
  explicit Pusher(int total) : total_(total) {}
  void onStart(sim::Context& ctx) override {
    if (ctx.self() == 0) send(ctx);
  }
  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    if (ctx.self() == 1 && m.type == 9) ++received_;
  }
  void onRoundEnd(sim::Context& ctx) override {
    if (ctx.self() == 0 && sent_ < total_) send(ctx);
  }
  bool wantsMoreRounds() const override { return sent_ < total_; }
  int received() const { return received_; }

 private:
  void send(sim::Context& ctx) {
    sim::Message m;
    m.type = 9;
    ctx.sendLongRange(1, std::move(m));
    ++sent_;
  }
  int total_;
  int sent_ = 0;
  int received_ = 0;
};

}  // namespace longrange

TEST(FaultSemantics, BlackoutDropsLongRangeOnly) {
  const auto udg = lineGraph(2);
  sim::FaultConfig cfg;
  cfg.blackouts.push_back({2, 4});  // deliveries due in rounds 2 and 3 are lost
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  longrange::Pusher p(6);  // deliveries due rounds 1..6
  s.run(p);
  EXPECT_EQ(p.received(), 4);
  EXPECT_EQ(s.stats()[0].droppedLongRange, 2);
  EXPECT_EQ(s.stats()[0].droppedAdHoc, 0);
}

TEST(RoundBudget, OverrunIsReportedNotEnforced) {
  const auto udg = lineGraph(10);
  sim::Simulator s(udg);
  s.setRoundBudget(4);
  FloodProtocol flood(udg.numNodes());
  const int rounds = s.run(flood);  // a 9-hop line needs 9 rounds
  EXPECT_TRUE(flood.complete());    // the budget never stops the run
  const auto& rep = s.budgetReport();
  EXPECT_EQ(rep.budget, 4);
  EXPECT_EQ(rep.roundsUsed, rounds);
  EXPECT_TRUE(rep.overrun);
  EXPECT_EQ(rep.overrunRounds(), rounds - 4);

  s.setRoundBudget(100);
  FloodProtocol again(udg.numNodes());
  s.run(again);
  EXPECT_FALSE(s.budgetReport().overrun);
  EXPECT_EQ(s.budgetReport().overrunRounds(), 0);
}

// ---------------------------------------------------------------------------
// Reliable transport.
// ---------------------------------------------------------------------------

TEST(ReliableTransport, NoFaultsMeansNoRetransmissions) {
  const auto udg = lineGraph(10);
  sim::Simulator s(udg);
  FloodProtocol flood(udg.numNodes());
  protocols::ReliableProtocol reliable(s, flood);
  s.run(reliable);
  EXPECT_TRUE(flood.complete());
  EXPECT_EQ(reliable.stats().retransmissions, 0);
  EXPECT_EQ(reliable.stats().abandoned, 0);
  EXPECT_GT(reliable.stats().acks, 0);
}

TEST(ReliableTransport, FloodSurvivesHeavyCombinedFaults) {
  const auto udg = lineGraph(30);
  sim::FaultConfig cfg;
  cfg.seed = 2024;
  cfg.adHocDrop = 0.3;
  cfg.adHocDuplicate = 0.1;
  cfg.adHocDelay = 0.1;
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  FloodProtocol flood(udg.numNodes());
  protocols::ReliableProtocol reliable(s, flood);
  s.run(reliable);
  EXPECT_TRUE(flood.complete());
  EXPECT_GT(reliable.stats().retransmissions, 0);
  EXPECT_GT(reliable.stats().duplicatesSuppressed, 0);
}

// ---------------------------------------------------------------------------
// End-to-end: the preprocessing protocols under loss produce the exact
// fault-free outputs (the ISSUE's acceptance sweep).
// ---------------------------------------------------------------------------

TEST(LdelUnderLoss, RetryingConstructionMatchesFaultFreeOnRandomInstances) {
  const double lossRates[] = {0.02, 0.05, 0.10};
  const protocols::RetryPolicy retry;
  int instances = 0;
  for (unsigned seed = 1; seed <= 20; ++seed) {
    const auto params = scenario::paramsForNodeCount(300, 9000 + seed);
    const auto sc = scenario::makeScenario(params);
    ASSERT_GE(sc.points.size(), 256u) << "seed " << seed;
    core::HybridNetwork net(sc.points);

    sim::Simulator clean(net.udg());
    const auto reference = protocols::runLdelConstruction(clean, net.radius());
    ASSERT_EQ(reference.rounds, 3);
    auto refEdges = reference.graph.edges();
    std::sort(refEdges.begin(), refEdges.end());

    for (const double loss : lossRates) {
      sim::FaultConfig cfg;
      cfg.seed = 100 * seed + static_cast<std::uint64_t>(loss * 1000);
      cfg.adHocDrop = loss;
      // Duplicates and delays run the transport's dedup and reorder paths,
      // and a neighbor that proposes first confirms early.
      cfg.adHocDuplicate = 0.03;
      cfg.adHocDelay = 0.03;
      sim::Simulator s(net.udg(), sim::FaultPlan(cfg));
      const auto dist = protocols::runLdelConstruction(s, net.radius(), &retry);

      auto edges = dist.graph.edges();
      std::sort(edges.begin(), edges.end());
      EXPECT_EQ(edges, refEdges) << "seed " << seed << " loss " << loss;
      EXPECT_EQ(dist.isBoundary, reference.isBoundary)
          << "seed " << seed << " loss " << loss;
      EXPECT_GE(dist.rounds, 3);
      if (loss > 0.0) {
        EXPECT_GT(dist.retransmissions, 0);
      }
      ++instances;
    }
  }
  EXPECT_EQ(instances, 60);
}

TEST(RingPipelineUnderLoss, ResultsMatchFaultFreeRun) {
  scenario::ScenarioParams p;
  p.width = p.height = 16.0;
  p.seed = 5;
  p.obstacles.push_back(scenario::regularPolygonObstacle({8, 8}, 2.5, 6));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);

  protocols::RingInputs rings;
  for (const auto& h : net.holes().holes) rings.rings.push_back(h.ring);
  if (net.holes().outerBoundary.size() >= 3) {
    rings.rings.push_back(net.holes().outerBoundary);
  }
  ASSERT_FALSE(rings.rings.empty());

  sim::Simulator clean(net.udg());
  protocols::RingPipeline reference(clean, rings);
  const auto refResults = reference.run();

  sim::FaultConfig cfg;
  cfg.seed = 31337;
  cfg.adHocDrop = 0.05;
  cfg.longRangeDrop = 0.05;
  const protocols::RetryPolicy retry;
  sim::Simulator s(net.udg(), sim::FaultPlan(cfg));
  protocols::RingPipeline faulty(s, rings, &retry);
  const auto results = faulty.run();

  ASSERT_EQ(results.size(), refResults.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].leader, refResults[i].leader) << "ring " << i;
    EXPECT_EQ(results[i].size, refResults[i].size) << "ring " << i;
    // The turning angle is a float sum whose addition order may differ.
    EXPECT_NEAR(results[i].turningAngle, refResults[i].turningAngle, 1e-9);
    // The hull is order-canonical but compare as sets to be safe.
    const std::set<int> a(results[i].hull.begin(), results[i].hull.end());
    const std::set<int> b(refResults[i].hull.begin(), refResults[i].hull.end());
    EXPECT_EQ(a, b) << "ring " << i;
  }
  EXPECT_GT(faulty.reliableStats().retransmissions, 0);
}

TEST(DominatingSetUnderLoss, ResultStaysAValidDominatingSet) {
  const int n = 40;
  const auto udg = lineGraph(n);
  std::vector<int> chain(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) chain[static_cast<std::size_t>(i)] = i;

  sim::FaultConfig cfg;
  cfg.seed = 555;
  cfg.longRangeDrop = 0.05;  // the DS protocol talks over long-range links
  const protocols::RetryPolicy retry;
  sim::Simulator s(udg, sim::FaultPlan(cfg));
  protocols::DominatingSetProtocol ds(s, {chain}, 1, &retry);
  const int rounds = ds.run();
  EXPECT_LT(rounds, 1 << 16);

  const auto& set = ds.dominatingSet(0);
  std::vector<char> covered(static_cast<std::size_t>(n), 0);
  for (int v : set) {
    covered[static_cast<std::size_t>(v)] = 1;
    if (v > 0) covered[static_cast<std::size_t>(v - 1)] = 1;
    if (v + 1 < n) covered[static_cast<std::size_t>(v + 1)] = 1;
  }
  for (int v = 0; v < n; ++v) EXPECT_TRUE(covered[static_cast<std::size_t>(v)]) << v;
  // O(1)-approximation sanity: optimum on a path is ceil(n/3).
  EXPECT_LE(static_cast<int>(set.size()), n);
  EXPECT_GE(static_cast<int>(set.size()), (n + 2) / 3);
}

}  // namespace
}  // namespace hybrid
