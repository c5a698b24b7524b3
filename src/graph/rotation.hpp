#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace hybrid::graph {

/// Sorts `nbrs` counter-clockwise by their direction from `at`: the one
/// angular order that face walks and face-routing traversals share.
void sortCcw(const GeometricGraph& g, NodeId at, std::span<NodeId> nbrs);

/// Rotation system of a plane-embedded graph: per node, its neighbors in
/// counter-clockwise angular order, with successor/predecessor queries.
/// This is the primitive behind face-routing traversals (right/left-hand
/// rule).
class RotationSystem {
 public:
  explicit RotationSystem(const GeometricGraph& g);

  /// Neighbor of `at` that follows `from` counter-clockwise.
  NodeId nextCcw(NodeId at, NodeId from) const;
  /// Neighbor of `at` that follows `from` clockwise.
  NodeId nextCw(NodeId at, NodeId from) const;

  /// First neighbor of `at` encountered when sweeping a ray from direction
  /// `towards` in clockwise (right-hand) or counter-clockwise order. Used
  /// to pick the first edge of the face intersected by the segment
  /// at->towards.
  NodeId firstCw(NodeId at, geom::Vec2 towards) const;
  NodeId firstCcw(NodeId at, geom::Vec2 towards) const;

  const std::vector<NodeId>& neighborsCcw(NodeId at) const {
    return order_[static_cast<std::size_t>(at)];
  }

 private:
  int indexOf(NodeId at, NodeId nb) const;

  const GeometricGraph& g_;
  std::vector<std::vector<NodeId>> order_;
};

}  // namespace hybrid::graph
