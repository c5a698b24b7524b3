// E16 — fault tolerance of the preprocessing protocols: rounds and traffic
// overhead vs message loss rate, as JSON.
//
// Fixed deployment with obstacles; a loss-rate sweep over the seeded fault
// injection layer (drops on both channels). Each rate runs the three
// retry-wrapped protocols — the O(1)-round LDel construction, the ring
// pipeline and the bay dominating sets — on a fresh faulty simulator and
// verifies the LDel output still matches the fault-free oracle exactly.
// The loss=0 row is the baseline; overhead columns are ratios against it.
// Exits 1 when any row's LDel output is not exact.
// The LDel phase additionally carries a round budget equal to its
// fault-free round count, demonstrating the simulator's overrun report.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "protocols/dominating_set_protocol.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/reliable.hpp"
#include "protocols/ring_pipeline.hpp"
#include "sim/fault_plan.hpp"

using namespace hybrid;

namespace {

struct SweepRow {
  double loss = 0.0;
  int ldelRounds = 0;
  int ringRounds = 0;
  int dsRounds = 0;
  long messages = 0;
  long retransmissions = 0;
  long dropped = 0;
  bool ldelExact = false;
  sim::RoundBudgetReport ldelBudget;
  int totalRounds() const { return ldelRounds + ringRounds + dsRounds; }
};

SweepRow runAtLossRate(const core::HybridNetwork& net, double loss, int ldelBudget) {
  SweepRow row;
  row.loss = loss;

  sim::FaultConfig cfg;
  cfg.seed = 0xE16 + static_cast<std::uint64_t>(loss * 10000);
  cfg.adHocDrop = loss;
  cfg.longRangeDrop = loss;
  sim::Simulator s(net.udg(), sim::FaultPlan(cfg));
  const protocols::RetryPolicy retry;
  const protocols::RetryPolicy* retryPtr = loss > 0.0 ? &retry : nullptr;

  s.setRoundBudget(ldelBudget);
  const auto ldel = protocols::runLdelConstruction(s, net.radius(), retryPtr);
  row.ldelRounds = ldel.rounds;
  row.ldelBudget = s.budgetReport();
  row.retransmissions += ldel.retransmissions;
  auto edges = ldel.graph.edges();
  auto oracleEdges = net.ldel().edges();
  std::sort(edges.begin(), edges.end());
  std::sort(oracleEdges.begin(), oracleEdges.end());
  row.ldelExact = edges == oracleEdges;

  protocols::RingInputs rings;
  for (const auto& h : net.holes().holes) rings.rings.push_back(h.ring);
  if (net.holes().outerBoundary.size() >= 3) {
    rings.rings.push_back(net.holes().outerBoundary);
  }
  protocols::RingPipeline pipeline(s, rings, retryPtr);
  pipeline.run();
  row.ringRounds = pipeline.rounds().total();
  row.retransmissions += pipeline.reliableStats().retransmissions;

  std::vector<std::vector<int>> chains;
  for (const auto& a : net.abstractions()) {
    for (const auto& bay : a.bays) chains.push_back(bay.chain);
  }
  protocols::DominatingSetProtocol ds(s, chains, 1, retryPtr);
  row.dsRounds = ds.run();
  row.retransmissions += ds.reliableStats().retransmissions;

  row.messages = s.totalMessages();
  row.dropped = s.totalDropped();
  return row;
}

}  // namespace

int main() {
  const auto sc = bench::convexHolesScenario(2048, 1600);
  core::HybridNetwork net(sc.points);

  const double lossRates[] = {0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20};

  // Baseline first: its LDel round count is the budget handed to every
  // faulty run, so the JSON carries the overrun report per rate.
  SweepRow baseline = runAtLossRate(net, 0.0, 0);
  baseline = runAtLossRate(net, 0.0, baseline.ldelRounds);

  std::printf("{\n");
  std::printf("  \"experiment\": \"e16_fault_tolerance\",\n");
  std::printf("  \"n\": %zu,\n", net.udg().numNodes());
  std::printf("  \"holes\": %zu,\n", net.holes().holes.size());
  std::printf(
      "  \"retryPolicy\": {\"baseTimeout\": 3, \"maxTimeout\": 32, \"maxAttempts\": 16},\n");
  std::printf("  \"sweep\": [\n");
  bool first = true;
  bool allExact = true;
  for (const double loss : lossRates) {
    const SweepRow row =
        loss == 0.0 ? baseline : runAtLossRate(net, loss, baseline.ldelRounds);
    if (!first) std::printf(",\n");
    first = false;
    std::printf("    {\"loss\": %.2f, "
                "\"rounds\": {\"ldel\": %d, \"rings\": %d, \"ds\": %d, \"total\": %d}, "
                "\"roundOverhead\": %.3f, "
                "\"messages\": %ld, \"trafficOverhead\": %.3f, "
                "\"retransmissions\": %ld, \"dropped\": %ld, "
                "\"ldelExact\": %s, "
                "\"ldelBudget\": {\"budget\": %d, \"used\": %d, \"overrun\": %s, "
                "\"overrunRounds\": %d}}",
                row.loss, row.ldelRounds, row.ringRounds, row.dsRounds,
                row.totalRounds(),
                static_cast<double>(row.totalRounds()) /
                    static_cast<double>(baseline.totalRounds()),
                row.messages,
                static_cast<double>(row.messages) /
                    static_cast<double>(baseline.messages),
                row.retransmissions, row.dropped,
                row.ldelExact ? "true" : "false", row.ldelBudget.budget,
                row.ldelBudget.roundsUsed, row.ldelBudget.overrun ? "true" : "false",
                row.ldelBudget.overrunRounds());
    allExact = allExact && row.ldelExact;
  }
  std::printf("\n  ]\n}\n");
  // A lossy run that misses the fault-free LDel is a wrong answer.
  return allExact ? 0 : 1;
}
