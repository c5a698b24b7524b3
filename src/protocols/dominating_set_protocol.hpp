#pragma once

#include <vector>

#include "protocols/reliable.hpp"
#include "sim/simulator.hpp"

namespace hybrid::protocols {

/// Distributed dominating set on bay chains (paper §5.6, Jia et al. style).
///
/// Each chain is a path of hole-boundary nodes (degree Delta = 2). Rounds
/// alternate between (a) exchanging spans — the number of uncovered nodes a
/// candidate would newly cover — with chain neighbors, and (b) letting
/// candidates whose span is maximal within two hops join the set with
/// probability 1/2. The expected round count is O(log k) and the resulting
/// set is an O(1)-approximation on paths (optimum is ceil(k/3)).
class DominatingSetProtocol {
 public:
  /// `chains`: node-id paths (each node appears in at most one chain).
  /// With `retry` set, the run is wrapped in the ReliableProtocol ARQ so
  /// it converges on a lossy fault-injected simulator. Coverage is
  /// monotone and spans are recomputed every super-round, so delayed
  /// deliveries only slow convergence, never corrupt the result.
  DominatingSetProtocol(sim::Simulator& simulator, std::vector<std::vector<int>> chains,
                        unsigned seed = 1, const RetryPolicy* retry = nullptr);

  /// Runs the protocol; returns rounds used. `maxRounds` bounds the run
  /// against the (vanishingly unlikely) case that abandoned transfers
  /// leave a node waiting forever.
  int run(int maxRounds = 1 << 16);

  /// Transport counters of the last run (all zero without retry).
  const ReliableStats& reliableStats() const { return reliableStats_; }

  /// Members of the dominating set of chain `c` after run().
  const std::vector<int>& dominatingSet(std::size_t c) const { return result_[c]; }
  std::size_t numChains() const { return chains_.size(); }

 private:
  sim::Simulator& sim_;
  std::vector<std::vector<int>> chains_;
  std::vector<std::vector<int>> result_;
  unsigned seed_;
  bool withRetry_ = false;
  ReliableStats reliableStats_;
};

}  // namespace hybrid::protocols
