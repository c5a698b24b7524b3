#pragma once

#include <memory>
#include <vector>

#include "geom/polygon.hpp"
#include "graph/planar_faces.hpp"

namespace hybrid::holes {

/// A radio hole of the 2-localized Delaunay graph.
///
/// Inner holes (paper Def. 2.4) are bounded faces with at least four nodes.
/// Outer holes (Def. 2.5) are faces of the graph augmented with the convex
/// hull of V that contain a hull edge longer than the unit radius.
/// The ring lists the boundary nodes counter-clockwise around the hole
/// interior, so the hole polygon has the hole region as its interior.
struct Hole {
  std::vector<graph::NodeId> ring;
  geom::Polygon polygon;
  bool outer = false;

  double perimeter() const { return polygon.perimeter(); }  ///< P(h)
};

/// Result of the hole detection step.
struct HoleAnalysis {
  std::vector<Hole> holes;                    ///< Inner holes, then outer holes.
  std::vector<graph::NodeId> outerBoundary;   ///< Outer face walk (clockwise).
  std::vector<char> isHoleNode;               ///< Per-node flag.
  std::vector<std::vector<int>> holesOfNode;  ///< Hole indices per node.
  /// The faces of LDel^2 plus its long hull edges; every hole is one of them.
  std::shared_ptr<const graph::PlanarFaces> faces;
  std::vector<int> holeOfFace;  ///< Hole index per face; -1 for the others.
  double radius = 1.0;          ///< The radius the hull edges were chosen by.

  /// Hole polygons, in hole order — the obstacle set for visibility tests.
  std::vector<geom::Polygon> holePolygons() const;
};

/// Detects all radio holes of a planar-embedded LDel^2 graph. `radius` is
/// the unit-disk radius used by the outer-hole rule (hull edges > radius).
HoleAnalysis detectHoles(const graph::GeometricGraph& ldel, double radius = 1.0);

}  // namespace hybrid::holes
