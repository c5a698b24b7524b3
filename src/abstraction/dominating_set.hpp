#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace hybrid::abstraction {

/// Dominating set of a path of nodes (a bay chain): every chain node is in
/// the set or adjacent (on the chain) to a member. The greedy every-third
/// rule is optimal for paths: |DS| = ceil(k / 3).
std::vector<graph::NodeId> pathDominatingSet(const std::vector<graph::NodeId>& chain);

/// Verifies the dominating-set property of `ds` over the chain.
bool dominatesChain(const std::vector<graph::NodeId>& chain,
                    const std::vector<graph::NodeId>& ds);

}  // namespace hybrid::abstraction
