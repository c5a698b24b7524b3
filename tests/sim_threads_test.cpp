#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "core/hybrid_network.hpp"
#include "delaunay/udg.hpp"
#include "protocols/dominating_set_protocol.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/reliable.hpp"
#include "protocols/ring_pipeline.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace hybrid::sim {
namespace {

graph::GeometricGraph gridGraph(int side) {
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      pts.push_back({0.9 * x, 0.9 * y});
    }
  }
  return delaunay::buildUnitDiskGraph(pts, 1.0);
}

// Thread-compatible workload (strictly per-node state) that exercises every
// send path: ad hoc gossip with ID introductions in onStart/onRoundEnd, and
// long-range replies out of onMessage once IDs have been learned.
class MixProtocol : public Protocol {
 public:
  explicit MixProtocol(std::size_t n, int rounds)
      : rounds_(rounds), heard_(n, 0) {}

  void onStart(Context& ctx) override { gossip(ctx); }

  void onMessage(Context& ctx, const Message& m) override {
    auto& h = heard_[static_cast<std::size_t>(ctx.self())];
    ++h;
    if (m.type == kGossip && !m.ids.empty() && h % 3 == 0) {
      const int target = m.ids.back();
      if (target != ctx.self() && ctx.knows(target)) {
        Message reply;
        reply.type = kReply;
        reply.ints = {static_cast<std::int64_t>(ctx.self()), h};
        ctx.sendLongRange(target, std::move(reply));
      }
    }
  }

  void onRoundEnd(Context& ctx) override {
    if (ctx.round() < rounds_) gossip(ctx);
  }

  long totalHeard() const {
    long t = 0;
    for (long h : heard_) t += h;
    return t;
  }

 private:
  static constexpr int kGossip = 1;
  static constexpr int kReply = 2;

  void gossip(Context& ctx) {
    const auto nbs = ctx.udgNeighbors();
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      Message m;
      m.type = kGossip;
      m.ints = {static_cast<std::int64_t>(ctx.round())};
      m.reals = {ctx.position().x};
      // Introduce the next neighbor around: grows the knowledge graph so
      // long-range sends become possible.
      m.ids.push_back(nbs[(i + 1) % nbs.size()]);
      ctx.sendAdHoc(nbs[i], std::move(m));
    }
  }

  int rounds_;
  std::vector<long> heard_;
};

FaultConfig lossyConfig() {
  FaultConfig cfg;
  cfg.seed = 20260806;
  cfg.adHocDrop = 0.08;
  cfg.adHocDuplicate = 0.05;
  cfg.adHocDelay = 0.07;
  cfg.longRangeDrop = 0.10;
  cfg.maxDelayRounds = 3;
  cfg.crashes.push_back({5, 2, 6});
  cfg.crashes.push_back({17, 4, 9});
  cfg.blackouts.push_back({3, 5});
  return cfg;
}

struct RunResult {
  std::string trace;
  long totalMessages = 0;
  long totalDropped = 0;
  long heard = 0;
  int rounds = 0;
};

RunResult runAt(int threads, const FaultConfig* faults) {
  const auto g = gridGraph(6);
  Simulator sim = faults != nullptr ? Simulator(g, FaultPlan(*faults)) : Simulator(g);
  sim.setThreads(threads);
  // Keep the parallel machinery (and its TSan coverage) honest even on
  // small CI boxes where `threads` exceeds the hardware concurrency.
  sim.setAllowOversubscribe(true);
  sim.enableTrace();
  MixProtocol proto(g.numNodes(), 8);
  RunResult r;
  r.rounds = sim.run(proto, 200);
  r.trace = sim.trace();
  r.totalMessages = sim.totalMessages();
  r.totalDropped = sim.totalDropped();
  r.heard = proto.totalHeard();
  return r;
}

TEST(SimThreads, TraceIsByteIdenticalAcrossThreadCounts) {
  const RunResult serial = runAt(1, nullptr);
  ASSERT_FALSE(serial.trace.empty());
  for (const int t : {2, 8}) {
    const RunResult parallel = runAt(t, nullptr);
    EXPECT_EQ(parallel.trace, serial.trace) << "threads=" << t;
    EXPECT_EQ(parallel.totalMessages, serial.totalMessages);
    EXPECT_EQ(parallel.heard, serial.heard);
    EXPECT_EQ(parallel.rounds, serial.rounds);
  }
}

TEST(SimThreads, FaultScheduleIsByteIdenticalAcrossThreadCounts) {
  const FaultConfig cfg = lossyConfig();
  const RunResult serial = runAt(1, &cfg);
  ASSERT_FALSE(serial.trace.empty());
  EXPECT_GT(serial.totalDropped, 0);  // the plan actually bites
  for (const int t : {2, 8}) {
    const RunResult parallel = runAt(t, &cfg);
    EXPECT_EQ(parallel.trace, serial.trace) << "threads=" << t;
    EXPECT_EQ(parallel.totalMessages, serial.totalMessages);
    EXPECT_EQ(parallel.totalDropped, serial.totalDropped);
    EXPECT_EQ(parallel.heard, serial.heard);
    EXPECT_EQ(parallel.rounds, serial.rounds);
  }
}

struct ReliableRun {
  std::string trace;
  long retransmissions = 0;
};

// The MixProtocol wrapped in the ARQ transport (SendTap + per-node
// transport state).
ReliableRun reliableRunAt(int threads, const FaultConfig* faults) {
  const auto g = gridGraph(5);
  Simulator sim = faults != nullptr ? Simulator(g, FaultPlan(*faults)) : Simulator(g);
  sim.setThreads(threads);
  sim.setAllowOversubscribe(true);
  sim.enableTrace();
  MixProtocol inner(g.numNodes(), 5);
  protocols::ReliableProtocol rel(sim, inner);
  sim.run(rel, 400);
  return {sim.trace(), rel.stats().retransmissions};
}

TEST(SimThreads, ReliableTransportMatchesAcrossThreadCounts) {
  // The ARQ wrapper under a lossy plan is the simulator's most stateful
  // client: its tap runs on every send.
  const FaultConfig cfg = lossyConfig();
  const ReliableRun serial = reliableRunAt(1, &cfg);
  ASSERT_FALSE(serial.trace.empty());
  for (const int t : {2, 8}) {
    const ReliableRun parallel = reliableRunAt(t, &cfg);
    EXPECT_EQ(parallel.trace, serial.trace) << "threads=" << t;
    EXPECT_EQ(parallel.retransmissions, serial.retransmissions) << "threads=" << t;
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// FNV-1a digests of the fault-free MixProtocol traces, plain and under the
// ARQ wrapper, recorded from the code. Any change to fault-free delivery
// order, tap order or the trace format shows up here, at every thread count.
TEST(SimThreads, FaultFreeTracesMatchRecordedDigests) {
  constexpr std::uint64_t kPlainDigest = 0xB666020C75EC8CACULL;
  constexpr std::uint64_t kReliableDigest = 0x00593239D71D95D5ULL;
  for (const int t : {1, 2, 8}) {
    const std::uint64_t plain = fnv1a(runAt(t, nullptr).trace);
    const std::uint64_t reliable = fnv1a(reliableRunAt(t, nullptr).trace);
    EXPECT_EQ(plain, kPlainDigest) << "threads=" << t << std::hex << " 0x" << plain;
    EXPECT_EQ(reliable, kReliableDigest) << "threads=" << t << std::hex << " 0x" << reliable;
  }
}

// FNV-1a over 64-bit words, for hashing protocol outputs.
class WordHash {
 public:
  void add(std::int64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (static_cast<std::uint64_t>(w) >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::int64_t>(x)); }
  void add(const std::vector<int>& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (const int x : v) add(static_cast<std::int64_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct LossyDigests {
  std::uint64_t trace = 0;
  std::uint64_t ldel = 0;
  std::uint64_t rings = 0;
  std::uint64_t ds = 0;
};

// The distributed preprocessing under the ARQ transport on one lossy,
// traced simulator: LDel^2, the ring pipeline on the hole rings plus the
// outer boundary, then dominating sets on the bay chains.
LossyDigests lossyPreprocessingAt(const core::HybridNetwork& net, int threads) {
  FaultConfig cfg;
  cfg.seed = 20261019;
  cfg.adHocDrop = 0.05;
  cfg.longRangeDrop = 0.05;
  cfg.adHocDuplicate = 0.03;
  cfg.adHocDelay = 0.03;
  Simulator sim(net.udg(), FaultPlan(cfg));
  sim.setThreads(threads);
  sim.setAllowOversubscribe(true);
  sim.enableTrace();
  const protocols::RetryPolicy retry;
  LossyDigests d;

  const auto ldel = protocols::runLdelConstruction(sim, net.radius(), &retry);
  WordHash hl;
  for (std::size_t v = 0; v < ldel.graph.numNodes(); ++v) {
    const auto nbrs = ldel.graph.neighbors(static_cast<int>(v));
    hl.add(std::vector<int>(nbrs.begin(), nbrs.end()));
    hl.add(static_cast<std::int64_t>(ldel.isBoundary[v]));
    hl.add(static_cast<std::int64_t>(ldel.gaps[v].size()));
    for (const auto& [a, b] : ldel.gaps[v]) {
      hl.add(static_cast<std::int64_t>(a));
      hl.add(static_cast<std::int64_t>(b));
    }
  }
  hl.add(static_cast<std::int64_t>(ldel.rounds));
  hl.add(static_cast<std::int64_t>(ldel.messages));
  hl.add(static_cast<std::int64_t>(ldel.retransmissions));
  d.ldel = hl.value();

  protocols::RingInputs rings;
  for (const auto& h : net.holes().holes) rings.rings.push_back(h.ring);
  if (net.holes().outerBoundary.size() >= 3) rings.rings.push_back(net.holes().outerBoundary);
  protocols::RingPipeline pipeline(sim, rings, &retry);
  WordHash hr;
  for (const auto& r : pipeline.run()) {
    hr.add(static_cast<std::int64_t>(r.leader));
    hr.add(static_cast<std::int64_t>(r.size));
    hr.add(r.turningAngle);
    hr.add(r.hull);
  }
  hr.add(static_cast<std::int64_t>(pipeline.rounds().total()));
  hr.add(static_cast<std::int64_t>(pipeline.reliableStats().retransmissions));
  d.rings = hr.value();

  std::vector<std::vector<int>> chains;
  for (const auto& a : net.abstractions()) {
    for (const auto& bay : a.bays) chains.push_back(bay.chain);
  }
  protocols::DominatingSetProtocol ds(sim, chains, 1, &retry);
  WordHash hd;
  hd.add(static_cast<std::int64_t>(ds.run()));
  for (std::size_t c = 0; c < ds.numChains(); ++c) hd.add(ds.dominatingSet(c));
  hd.add(static_cast<std::int64_t>(ds.reliableStats().retransmissions));
  d.ds = hd.value();

  d.trace = fnv1a(sim.trace());
  return d;
}

// Digests of the distributed preprocessing under loss, duplicates and
// delays, recorded from the code: a change to any protocol's messages,
// send order, ARQ bookkeeping or outputs shows up here, at 1 and 2
// threads.
TEST(SimThreads, LossyPreprocessingMatchesRecordedDigests) {
  const auto sc = bench::convexHolesScenario(600, 7);
  const core::HybridNetwork net(sc.points, sc.radius);
  ASSERT_FALSE(net.holes().holes.empty());
  std::size_t bays = 0;
  for (const auto& a : net.abstractions()) bays += a.bays.size();
  ASSERT_GT(bays, 0u);

  constexpr std::uint64_t kTrace = 0x4E45CFFCF4C76A85ULL;
  constexpr std::uint64_t kLdel = 0x57F3852E04F8CD84ULL;
  constexpr std::uint64_t kRings = 0xF2A85EF5A36307CAULL;
  constexpr std::uint64_t kDs = 0x6924F46E87F1E7F1ULL;
  for (const int t : {1, 2}) {
    const LossyDigests d = lossyPreprocessingAt(net, t);
    EXPECT_EQ(d.trace, kTrace) << "threads=" << t << std::hex << " 0x" << d.trace;
    EXPECT_EQ(d.ldel, kLdel) << "threads=" << t << std::hex << " 0x" << d.ldel;
    EXPECT_EQ(d.rings, kRings) << "threads=" << t << std::hex << " 0x" << d.rings;
    EXPECT_EQ(d.ds, kDs) << "threads=" << t << std::hex << " 0x" << d.ds;
  }
}

TEST(SimThreads, OversubscribedRequestIsClampedToHardware) {
  const auto g = gridGraph(6);
  Simulator sim(g);
  sim.setThreads(1000);  // far beyond any box and beyond kMaxWorkers
  MixProtocol proto(g.numNodes(), 4);
  sim.run(proto, 100);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(sim.effectiveThreads(), static_cast<int>(hw));
  EXPECT_GE(sim.effectiveThreads(), 1);

  // With the escape hatch the request is honored (up to the pool cap and
  // the node count), which is what the determinism tests above rely on.
  Simulator sim2(g);
  sim2.setThreads(8);
  sim2.setAllowOversubscribe(true);
  MixProtocol proto2(g.numNodes(), 4);
  sim2.run(proto2, 100);
  EXPECT_EQ(sim2.effectiveThreads(), 8);
}

TEST(SimThreads, EmptyGraphRunsZeroRounds) {
  const graph::GeometricGraph empty;
  for (const int t : {1, 2, 8}) {
    Simulator sim(empty);
    sim.setThreads(t);
    sim.setAllowOversubscribe(true);
    sim.enableTrace();
    MixProtocol proto(0, 4);
    EXPECT_EQ(sim.run(proto, 100), 0) << "threads=" << t;
    EXPECT_EQ(sim.totalMessages(), 0) << "threads=" << t;
    EXPECT_TRUE(sim.trace().empty()) << "threads=" << t;
  }
}

TEST(SimThreads, ThreadsZeroResolvesToHardware) {
  const auto g = gridGraph(4);
  Simulator sim(g);
  sim.setThreads(0);
  sim.enableTrace();
  MixProtocol proto(g.numNodes(), 4);
  sim.run(proto, 100);
  const std::string hw = sim.trace();

  const RunResult serial = [] {
    const auto g2 = gridGraph(4);
    Simulator s(g2);
    s.enableTrace();
    MixProtocol p(g2.numNodes(), 4);
    RunResult r;
    r.rounds = s.run(p, 100);
    r.trace = s.trace();
    return r;
  }();
  EXPECT_EQ(hw, serial.trace);
}

}  // namespace
}  // namespace hybrid::sim
