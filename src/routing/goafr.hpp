#pragma once

#include "routing/router.hpp"
#include "routing/subdivision.hpp"

namespace hybrid::routing {

/// GOAFR+-style routing (Kuhn, Wattenhofer, Zollinger; the paper's §1.4
/// worst-case-optimal local baseline): greedy until a local minimum, then
/// face traversal (right/left-hand rule on the planar graph) bounded by a
/// circle centered at the target. The circle starts at 1.4 * |ut| and
/// doubles whenever both traversal directions hit it (at most 24 times),
/// which is what makes the strategy O(rho^2)-competitive instead of
/// unbounded. Faces are walked on the network's face table with its hull
/// half-edges skipped, so every hop is an edge of `planar`.
class GoafrRouter : public Router {
 public:
  /// `sub` must be the subdivision of `planar`.
  GoafrRouter(const graph::GeometricGraph& planar, const PlanarSubdivision& sub)
      : g_(planar), faces_(sub.faces()) {}

  RouteResult route(graph::NodeId source, graph::NodeId target) const override;
  std::string name() const override { return "goafr+"; }

 private:
  /// One face-routing phase from the local minimum `u`. Appends hops,
  /// returns the node from which greedy resumes (closer to target than u),
  /// or -1 if the target is unreachable within the growth budget.
  graph::NodeId facePhase(std::vector<graph::NodeId>& path, graph::NodeId u,
                          graph::NodeId target) const;

  /// The graph half-edge after h clockwise (or counter-clockwise) around
  /// its tail, hull half-edges skipped.
  int turn(int h, bool clockwise) const;
  /// The first graph half-edge out of u met when sweeping from the
  /// direction of `towards`, clockwise or counter-clockwise; -1 if none.
  int firstEdge(graph::NodeId u, geom::Vec2 towards, bool clockwise) const;

  const graph::GeometricGraph& g_;
  const graph::PlanarFaces& faces_;
};

}  // namespace hybrid::routing
