// E17 — simulator message throughput, as JSON.
//
// Measures the hot-path overhaul end to end: pooled messages with
// small-buffer payloads, the O(m + n) counting-sort delivery order and
// multi-threaded node stepping, against a faithful replica of the pre-PR
// hot loop (one heap-backed message per send, per-round std::stable_sort,
// serial stepping) compiled into this binary. Both simulators run the same
// gossip workload — every node sends a 4-word data message (no ID
// introductions, like the bulk of protocol traffic) to every UDG
// neighbor every round — on the same graphs; each timed run is preceded by
// an untimed warm-up run so both sides are measured in steady state.
//
// Usage: e17_sim_throughput [--smoke | --gate] [--metrics FILE]
// (bench::BenchArgs). --smoke is one small graph with threads {1, 2}; its
// timed regions are sub-millisecond -- fast, but far too noisy to gate on.
// --gate is one config sized so every timed region is tens of milliseconds
// (stable ratios) while the whole run stays under a few seconds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "delaunay/udg.hpp"
#include "sim/simulator.hpp"

using namespace hybrid;

namespace {

graph::GeometricGraph gridGraph(int n) {
  // Near-square grid with 0.9 spacing: every interior node has exactly the
  // 4 axis neighbors within unit range.
  int side = 1;
  while (side * side < n) ++side;
  std::vector<geom::Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({0.9 * (i % side), 0.9 * (i / side)});
  }
  return delaunay::buildUnitDiskGraph(pts, 1.0);
}

// ---------------------------------------------------------------------------
// Pre-PR reference: the seed simulator's hot loop, reduced to what the
// workload exercises (no faults, no tap, no trace — those paths were cold).
// ---------------------------------------------------------------------------

struct LegacyMessage {
  int from = -1;
  int to = -1;
  int type = 0;
  std::vector<std::int64_t> ints;
  std::vector<double> reals;
  std::vector<int> ids;
  std::size_t words() const { return ints.size() + reals.size() + ids.size() + 1; }
};

struct LegacyStats {
  long sentAdHoc = 0;
  long sentWords = 0;
  long receivedWords = 0;
};

long runLegacyGossip(const graph::GeometricGraph& g, int rounds) {
  const auto n = static_cast<int>(g.numNodes());
  std::vector<std::unordered_set<int>> knowledge(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (int nb : g.neighbors(v)) knowledge[static_cast<std::size_t>(v)].insert(nb);
  }
  std::vector<LegacyStats> stats(static_cast<std::size_t>(n));
  std::vector<LegacyMessage> pending;

  const auto blast = [&](int v, int round) {
    for (int nb : g.neighbors(v)) {
      LegacyMessage m;
      m.from = v;
      m.to = nb;
      m.type = 7;
      m.ints = {static_cast<std::int64_t>(round), static_cast<std::int64_t>(v)};
      m.reals = {0.5 * v};
      auto& st = stats[static_cast<std::size_t>(v)];
      ++st.sentAdHoc;
      st.sentWords += static_cast<long>(m.words());
      pending.push_back(std::move(m));
    }
  };

  for (int v = 0; v < n; ++v) blast(v, 0);
  for (int round = 1; !pending.empty(); ++round) {
    std::vector<LegacyMessage> inbox = std::move(pending);
    pending = {};
    std::stable_sort(inbox.begin(), inbox.end(),
                     [](const LegacyMessage& a, const LegacyMessage& b) {
                       if (a.to != b.to) return a.to < b.to;
                       return a.from < b.from;
                     });
    for (const LegacyMessage& m : inbox) {
      auto& know = knowledge[static_cast<std::size_t>(m.to)];
      if (m.from != m.to) know.insert(m.from);
      for (int id : m.ids) {
        if (id != m.to) know.insert(id);
      }
      stats[static_cast<std::size_t>(m.to)].receivedWords += static_cast<long>(m.words());
    }
    if (round < rounds) {
      for (int v = 0; v < n; ++v) blast(v, round);
    }
  }
  long total = 0;
  for (const auto& s : stats) total += s.sentAdHoc;
  return total;
}

// ---------------------------------------------------------------------------
// The same workload against the real simulator (strictly per-node state, so
// it is valid at any thread count).
// ---------------------------------------------------------------------------

class GossipProtocol : public sim::Protocol {
 public:
  explicit GossipProtocol(int rounds) : rounds_(rounds) {}

  void onStart(sim::Context& ctx) override { blast(ctx); }
  void onMessage(sim::Context&, const sim::Message&) override {}
  void onRoundEnd(sim::Context& ctx) override {
    if (ctx.round() < rounds_) blast(ctx);
  }

 private:
  void blast(sim::Context& ctx) {
    const int v = ctx.self();
    for (int nb : ctx.udgNeighbors()) {
      sim::Message m;
      m.type = 7;
      m.ints = {static_cast<std::int64_t>(ctx.round()), static_cast<std::int64_t>(v)};
      m.reals = {0.5 * v};
      ctx.sendAdHoc(nb, std::move(m));
    }
  }
  int rounds_;
};

/// Best-of-kRepeats seconds of one gossip run on the pooled simulator, and
/// its message count. Unlike bench::bestSeconds, every repeat resets the
/// simulator's stats and runs a fresh protocol instance.
std::pair<double, long> measurePooled(const graph::GeometricGraph& g, int rounds, int threads) {
  sim::Simulator s(g);
  s.setThreads(threads);
  // Measure the requested configuration, not the hardware clamp: the gate
  // ratios must describe the same sharded machinery on every box size.
  s.setAllowOversubscribe(true);
  {
    GossipProtocol warm(rounds);  // warm-up: pool + scratch reach steady state
    s.run(warm);
  }
  double best = 0.0;
  for (int r = 0; r < bench::kRepeats; ++r) {
    s.resetStats();
    GossipProtocol proto(rounds);
    const auto t0 = std::chrono::steady_clock::now();
    s.run(proto);
    const double sec = bench::seconds(t0, std::chrono::steady_clock::now());
    if (best == 0.0 || sec < best) best = sec;
  }
  return {best, s.totalMessages()};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, "e17_sim_throughput");
  const bool smoke = args.smoke;
  const bool gate = args.gate;

  const std::vector<int> sizes = smoke  ? std::vector<int>{300}
                                 : gate ? std::vector<int>{2000}
                                        : std::vector<int>{1000, 4000, 10000};
  // The gate sweeps {1, 2, 8} so the 8t/1t thread-scaling ratio is among the
  // gated gauges; smoke stays tiny.
  const std::vector<int> threadCounts = smoke  ? std::vector<int>{1, 2}
                                        : gate ? std::vector<int>{1, 2, 8}
                                               : std::vector<int>{1, 2, 4, 8};
  const int rounds = smoke ? 10 : gate ? 60 : 50;

  std::printf("{\n");
  std::printf("  \"experiment\": \"e17_sim_throughput\",\n");
  std::printf(
      "  \"workload\": \"gossip: every node sends 4 payload words to every UDG "
      "neighbor, every round\",\n");
  std::printf("  \"rounds\": %d,\n", rounds);
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"configs\": [\n");
  bool firstCfg = true;
  for (const int n : sizes) {
    const auto g = gridGraph(n);
    long edges = 0;
    for (int v = 0; v < n; ++v) edges += static_cast<long>(g.neighbors(v).size());
    edges /= 2;

    long legacyMessages = 0;
    const double legacySecs =
        bench::bestSeconds([&] { legacyMessages = runLegacyGossip(g, rounds); });
    const double legacyMps = bench::ratio(static_cast<double>(legacyMessages), legacySecs);
    if (!firstCfg) std::printf(",\n");
    firstCfg = false;
    std::printf("    {\"n\": %d, \"edges\": %ld,\n", n, edges);
    std::printf("     \"legacy\": {\"messages\": %ld, \"seconds\": %.4f, "
                "\"messagesPerSec\": %.0f},\n",
                legacyMessages, legacySecs, legacyMps);
    HYBRID_OBS_STMT(if (obs::enabled()) {
      obs::Registry::global()
          .gauge("bench.e17.legacy.messages_per_s.n" + std::to_string(n))
          .set(legacyMps);
    });
    std::printf("     \"pooled\": [\n");
    double oneThreadMps = 0.0;
    bool firstT = true;
    for (const int t : threadCounts) {
      const auto [secs, messages] = measurePooled(g, rounds, t);
      const double mps = bench::ratio(static_cast<double>(messages), secs);
      if (t == 1) oneThreadMps = mps;
      if (!firstT) std::printf(",\n");
      firstT = false;
      const double speedup = bench::ratio(mps, legacyMps);
      const double scaling = bench::ratio(mps, oneThreadMps);
      std::printf("       {\"threads\": %d, \"messages\": %ld, \"seconds\": %.4f, "
                  "\"messagesPerSec\": %.0f, \"speedupVsLegacy\": %.2f, "
                  "\"speedupVs1Thread\": %.2f}",
                  t, messages, secs, mps, speedup, scaling);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key = ".n" + std::to_string(n) + ".t" + std::to_string(t);
        auto& reg = obs::Registry::global();
        reg.gauge("bench.e17.pooled.messages_per_s" + key).set(mps);
        // Machine-independent ratios: these are what the CI bench gate
        // checks ("speedup" names pass the gate's --filter).
        reg.gauge("bench.e17.pooled.speedup_vs_legacy" + key).set(speedup);
        if (t > 1) {
          reg.gauge("bench.e17.pooled.speedup_vs_1thread" + key).set(scaling);
        }
      });
    }
    std::printf("\n     ]}");
  }
  std::printf("\n  ]\n}\n");

  return bench::writeMetrics(args);
}
