#pragma once

#include "graph/rotation.hpp"
#include "routing/router.hpp"

namespace hybrid::routing {

/// GOAFR+-style routing (Kuhn, Wattenhofer, Zollinger; the paper's §1.4
/// worst-case-optimal local baseline): greedy until a local minimum, then
/// face traversal (right/left-hand rule on the planar graph) bounded by a
/// circle centered at the target. The circle starts at 1.4 * |ut| and
/// doubles whenever both traversal directions hit it (at most 24 times),
/// which is what makes the strategy O(rho^2)-competitive instead of
/// unbounded.
class GoafrRouter : public Router {
 public:
  explicit GoafrRouter(const graph::GeometricGraph& planar) : g_(planar), rot_(planar) {}

  RouteResult route(graph::NodeId source, graph::NodeId target) const override;
  std::string name() const override { return "goafr+"; }

 private:
  /// One face-routing phase from the local minimum `u`. Appends hops,
  /// returns the node from which greedy resumes (closer to target than u),
  /// or -1 if the target is unreachable within the growth budget.
  graph::NodeId facePhase(std::vector<graph::NodeId>& path, graph::NodeId u,
                          graph::NodeId target) const;

  const graph::GeometricGraph& g_;
  graph::RotationSystem rot_;
};

}  // namespace hybrid::routing
