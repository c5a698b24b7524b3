#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace hybrid::protocols {

/// The rooted long-range overlay tree of paper §5.5.
///
/// Gmyr et al. build a constant-degree tree of height O(log n) in
/// O(log^2 n) rounds; we substitute a head/tail cluster-merging protocol
/// with the same round complexity: in each of O(log n) phases every
/// cluster root flips a coin, heads propose to their minimum neighboring
/// cluster, tails accept all proposals, and the proposing roots hang under
/// the accepting root. Tree height grows by at most one per phase, so the
/// result has O(log n) height (degree is not constant — see DESIGN.md).
struct OverlayTree {
  int root = -1;
  std::vector<int> parent;                ///< -1 at the root.
  std::vector<std::vector<int>> children;
  int height = 0;
  int phases = 0;
  int rounds = 0;

  bool isSingleTree() const;
  int computedHeight() const;
};

/// Runs the construction: 3*ceil(log2 n) + 10 phases of
/// 3*ceil(log2 n) + 16 rounds each.
OverlayTree buildOverlayTree(sim::Simulator& simulator, unsigned seed = 1);

/// Convex hull distribution over the tree (paper §5.5): every node that
/// flags itself as a hull node contributes (id, x, y); the lists are
/// aggregated up to the root and re-broadcast, so afterwards every flagged
/// node knows all flagged nodes (they form a clique of long-range
/// contacts). Returns the rounds used; `learned[v]` is the full site list
/// as received by node v (empty for nodes that are not hull nodes).
int distributeHullInfo(sim::Simulator& simulator, const OverlayTree& tree,
                       const std::vector<char>& isHullNode,
                       std::vector<std::vector<int>>* learned);

}  // namespace hybrid::protocols
