#include "abstraction/dominating_set.hpp"

#include <set>

namespace hybrid::abstraction {

std::vector<graph::NodeId> pathDominatingSet(const std::vector<graph::NodeId>& chain) {
  std::vector<graph::NodeId> ds;
  // Picking positions 1, 4, 7, ... dominates a path optimally; the final
  // node is added when the tail would otherwise be uncovered.
  for (std::size_t i = 1; i < chain.size(); i += 3) ds.push_back(chain[i]);
  if (!chain.empty() && chain.size() % 3 == 1) ds.push_back(chain.back());
  if (chain.size() == 1) ds.assign(1, chain[0]);
  return ds;
}

bool dominatesChain(const std::vector<graph::NodeId>& chain,
                    const std::vector<graph::NodeId>& ds) {
  const std::set<graph::NodeId> dset(ds.begin(), ds.end());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (dset.contains(chain[i])) continue;
    const bool prevIn = i > 0 && dset.contains(chain[i - 1]);
    const bool nextIn = i + 1 < chain.size() && dset.contains(chain[i + 1]);
    if (!prevIn && !nextIn) return false;
  }
  return true;
}

}  // namespace hybrid::abstraction
