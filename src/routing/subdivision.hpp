#pragma once

#include "graph/graph.hpp"
#include "graph/planar_faces.hpp"
#include "holes/hole_detection.hpp"

namespace hybrid::routing {

/// Planar subdivision of the LDel^2 graph augmented with the long convex
/// hull edges of V (so that every point inside the hull of V lies in a
/// bounded face). Faces are classified as walkable triangles (all three
/// edges are real communication edges) or hole faces (radio holes and
/// outer holes); corridor routing walks triangles and stops at hole faces.
///
/// A view of the face table the hole analysis was read from: `ldel` and
/// `analysis` must outlive it.
class PlanarSubdivision {
 public:
  /// `radius` must be the radius `analysis` was detected with.
  PlanarSubdivision(const graph::GeometricGraph& ldel, const holes::HoleAnalysis& analysis,
                    double radius = 1.0);

  const graph::PlanarFaces& faces() const { return faces_; }

  /// Face on the left of the directed edge (u, v); -1 if there is no such edge.
  int faceLeftOf(graph::NodeId u, graph::NodeId v) const;

  bool isWalkable(int face) const {
    return !faces_.isOuter(face) && !faces_.touchesHull(face) && faces_.cycle(face).size() == 3;
  }
  bool isOuterFace(int face) const { return faces_.isOuter(face); }

  /// Index into the hole analysis for a hole face; -1 otherwise.
  int holeOfFace(int face) const { return analysis_.holeOfFace[static_cast<std::size_t>(face)]; }

  /// Among the bounded faces incident to `v`, the one whose interior
  /// contains `p` (p is expected to be a probe point just off `v`); -1 if
  /// none.
  int incidentFaceContaining(graph::NodeId v, geom::Vec2 p) const;

 private:
  const graph::GeometricGraph& g_;
  const holes::HoleAnalysis& analysis_;
  const graph::PlanarFaces& faces_;
};

}  // namespace hybrid::routing
