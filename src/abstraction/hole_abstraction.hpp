#pragma once

#include <vector>

#include "geom/polygon.hpp"
#include "holes/hole_detection.hpp"

namespace hybrid::abstraction {

/// A bay area of a hole (paper section 4.3): the stretch of the hole ring
/// strictly between two hull nodes that are adjacent on the convex hull.
struct BayArea {
  graph::NodeId hullFrom = -1;  ///< Convex hull node opening the bay.
  graph::NodeId hullTo = -1;    ///< Convex hull node closing the bay.
  std::vector<graph::NodeId> chain;  ///< Ring nodes strictly inside the bay.
};

/// The compact abstraction of one radio hole (paper section 4).
struct HoleAbstraction {
  int holeIndex = -1;
  /// Ring nodes on the convex hull of the hole, in ring (ccw) order.
  std::vector<graph::NodeId> hullNodes;
  geom::Polygon hullPolygon;
  /// The locally convex hull (Def. 4.1): ring subsequence with all
  /// remaining reflex shortcuts longer than the radius.
  std::vector<graph::NodeId> locallyConvexHull;
  /// One bay per consecutive hull pair that has intermediate ring nodes.
  std::vector<BayArea> bays;
  double bboxCircumference = 0.0;  ///< L(c): circumference of the hull's bounding box.
  double perimeter = 0.0;          ///< P(h): perimeter of the hole ring.
};

/// Computes the abstraction of every hole.
std::vector<HoleAbstraction> buildAbstractions(const graph::GeometricGraph& ldel,
                                               const holes::HoleAnalysis& analysis,
                                               double radius = 1.0);

/// True when the convex hulls of some two holes intersect under
/// geom::convexPolygonsIntersect (touching counts). The router's Auto
/// abstraction switches to bounding boxes exactly then.
bool anyHullsIntersect(const std::vector<HoleAbstraction>& abstractions);

/// Computes the locally convex hull of a ring (ccw around the hole):
/// repeatedly drops a vertex v with reflex interior angle (turn to the
/// right) whose shortcut ||uw|| <= radius, until a fixpoint.
std::vector<graph::NodeId> locallyConvexHullOfRing(const graph::GeometricGraph& g,
                                                   std::vector<graph::NodeId> ring,
                                                   double radius);

/// Per-node storage accounting matching Theorem 1.2. Units are "stored
/// node references".
struct StorageReport {
  std::vector<long> perNode;
  long maxHullNodeStorage = 0;
  long maxBoundaryNodeStorage = 0;
  long maxOtherNodeStorage = 0;
  long totalHullNodes = 0;
};

/// Counts what each node has to remember for the routing protocol:
/// hull nodes keep the full overlay (all hull nodes of all holes), boundary
/// nodes keep their two neighboring hull nodes plus their bay's dominating
/// set, and every other node keeps O(1).
StorageReport accountStorage(const graph::GeometricGraph& ldel,
                             const holes::HoleAnalysis& analysis,
                             const std::vector<HoleAbstraction>& abstractions,
                             const std::vector<std::vector<graph::NodeId>>& bayDominatingSets);

}  // namespace hybrid::abstraction
