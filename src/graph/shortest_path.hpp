#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace hybrid::graph {

/// Result of a single-source shortest-path computation.
struct ShortestPathTree {
  std::vector<double> dist;  ///< Euclidean distance from the source; +inf if unreachable.
  std::vector<NodeId> pred;  ///< Predecessor on a shortest path; -1 at source/unreachable.

  /// Reconstructs the source->target node path; empty if unreachable or if
  /// the predecessor chain is corrupted (more than n hops ⇒ a cycle).
  std::vector<NodeId> pathTo(NodeId target) const;
};

/// Dijkstra with Euclidean edge weights from `source`. If `target` >= 0 the
/// search stops once the target is settled.
ShortestPathTree dijkstra(const GeometricGraph& g, NodeId source, NodeId target = -1);

/// A* with Euclidean heuristic; returns the node path (empty if unreachable).
std::vector<NodeId> astarPath(const GeometricGraph& g, NodeId source, NodeId target);

/// Euclidean length of the shortest path, +inf if unreachable.
double shortestPathLength(const GeometricGraph& g, NodeId source, NodeId target);

/// Nodes within `k` hops of `source` (unbounded for k < 0), in BFS order:
/// the source first, then by hop count, each hop in discovery order. The
/// search is sized to the neighbourhood: visited nodes live in a small
/// open-addressing set that grows with it, never in an n-sized array.
std::vector<NodeId> kHopNeighborhood(const GeometricGraph& g, NodeId source, int k);

}  // namespace hybrid::graph
