#include "protocols/preprocessing.hpp"

#include <algorithm>

#include "protocols/dominating_set_protocol.hpp"
#include "protocols/ldel_protocol.hpp"

namespace hybrid::protocols {

namespace {

// Shared tail of both preprocessing variants: overlay tree, hull
// distribution and per-bay dominating sets over already-computed ring
// results.
void runOverlayPhases(const core::HybridNetwork& net, sim::Simulator& simulator,
                      PreprocessingOutputs& out, PreprocessingReport& rep,
                      unsigned seed, const RetryPolicy* retry) {
  out.tree = buildOverlayTree(simulator, seed);
  rep.treeConstruction = out.tree.rounds;
  rep.treeHeight = out.tree.height;
  rep.treeIsSingle = out.tree.isSingleTree();

  std::vector<char> isHull(simulator.numNodes(), 0);
  for (const auto& result : out.ringResults) {
    if (result.turningAngle <= 0.0) continue;  // outer boundary: no hull sites
    for (int v : result.hull) isHull[static_cast<std::size_t>(v)] = 1;
  }
  rep.hullDistribution = distributeHullInfo(simulator, out.tree, isHull, &out.hullKnowledge);

  std::vector<std::vector<int>> chains;
  for (const auto& a : net.abstractions()) {
    for (const auto& bay : a.bays) chains.push_back(bay.chain);
  }
  DominatingSetProtocol ds(simulator, chains, seed, retry);
  rep.dominatingSets = ds.run();
  rep.retransmissions += ds.reliableStats().retransmissions;
  out.bayDominatingSets.resize(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    out.bayDominatingSets[c] = ds.dominatingSet(c);
    if (chains[c].size() == 1 && out.bayDominatingSets[c].empty()) {
      out.bayDominatingSets[c] = chains[c];  // singleton chains are trivial
    }
  }

  rep.totalMessages = simulator.totalMessages();
  rep.maxWordsPerNode = simulator.maxWordsPerNode();
}

}  // namespace

PreprocessingOutputs runPreprocessing(const core::HybridNetwork& net,
                                      sim::Simulator& simulator,
                                      PreprocessingReport* report, unsigned seed,
                                      const RetryPolicy* retry) {
  PreprocessingReport rep;
  // The planar localized Delaunay graph is built in O(1) rounds with the
  // protocol of Li et al. (paper §5.1); we charge its constant here.
  rep.ldelConstruction = 4;

  // Boundary rings from the oracle: every hole ring + the outer boundary.
  RingInputs rings;
  for (const auto& h : net.holes().holes) rings.rings.push_back(h.ring);
  if (net.holes().outerBoundary.size() >= 3) {
    rings.rings.push_back(net.holes().outerBoundary);
  }
  PreprocessingOutputs out;
  RingPipeline pipeline(simulator, std::move(rings), retry);
  out.ringResults = pipeline.run();
  rep.rings = pipeline.rounds();
  rep.retransmissions += pipeline.reliableStats().retransmissions;
  runOverlayPhases(net, simulator, out, rep, seed, retry);
  if (report != nullptr) *report = rep;
  return out;
}

PreprocessingOutputs runDistributedPreprocessing(const core::HybridNetwork& net,
                                                 sim::Simulator& simulator,
                                                 PreprocessingReport* report,
                                                 unsigned seed,
                                                 std::vector<std::vector<int>>* ringsOut,
                                                 const RetryPolicy* retry) {
  PreprocessingReport rep;
  // Actually run the O(1)-round LDel construction + local hole detection.
  const auto ldel = runLdelConstruction(simulator, net.radius(), retry);
  rep.ldelConstruction = ldel.rounds;
  rep.retransmissions += ldel.retransmissions;

  RingInputs rings;
  rings.rings = assembleRingsFromGaps(ldel);

  PreprocessingOutputs out;
  RingPipeline pipeline(simulator, RingInputs{rings.rings}, retry);
  out.ringResults = pipeline.run();
  rep.rings = pipeline.rounds();
  rep.retransmissions += pipeline.reliableStats().retransmissions;

  // §5.4 second run: the outer boundary (turning angle -2*pi) computed its
  // own convex hull; every long hull chord delimits an outer hole, whose
  // arc runs the ring pipeline again.
  std::vector<std::vector<int>> outerHoleRings;
  for (std::size_t ri = 0; ri < out.ringResults.size(); ++ri) {
    const auto& r = out.ringResults[ri];
    if (r.leader < 0 || r.turningAngle >= 0.0) continue;
    const auto derived = deriveOuterHoleRings(rings.rings[ri], r.hull, net.udg(),
                                              net.radius());
    outerHoleRings.insert(outerHoleRings.end(), derived.begin(), derived.end());
  }
  if (!outerHoleRings.empty()) {
    RingPipeline second(simulator, RingInputs{outerHoleRings}, retry);
    auto secondResults = second.run();
    rep.retransmissions += second.reliableStats().retransmissions;
    rep.rings += second.rounds();
    for (std::size_t i = 0; i < outerHoleRings.size(); ++i) {
      rings.rings.push_back(outerHoleRings[i]);
      out.ringResults.push_back(std::move(secondResults[i]));
    }
  }
  if (ringsOut != nullptr) *ringsOut = rings.rings;

  runOverlayPhases(net, simulator, out, rep, seed, retry);
  if (report != nullptr) *report = rep;
  return out;
}

}  // namespace hybrid::protocols
