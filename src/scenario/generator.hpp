#pragma once

#include <random>
#include <vector>

#include "geom/polygon.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"

namespace hybrid::scenario {

/// Parameters of a synthetic ad hoc deployment.
struct ScenarioParams {
  double width = 30.0;
  double height = 30.0;
  /// Grid spacing of node placement. Values <= radius / sqrt(2) keep a
  /// jitter-free grid connected; the default leaves margin for jitter.
  /// At the default spacing/jitter, interior Delaunay edges stay below the
  /// radius, so only genuine obstacles produce radio holes.
  double spacing = 0.5;
  /// Jitter as a fraction of the spacing (uniform in both axes).
  double jitter = 0.3;
  double radius = 1.0;        ///< Unit-disk transmission radius.
  double clearance = 0.05;    ///< Keep nodes this far from obstacle boundaries.
  unsigned seed = 1;
  std::vector<geom::Polygon> obstacles;  ///< Radio-hole causing obstacles.
};

/// A generated deployment: node positions plus the obstacles that shaped
/// them. The point set is guaranteed duplicate-free and UDG-connected
/// (smaller components are dropped).
struct Scenario {
  std::vector<geom::Vec2> points;
  std::vector<geom::Polygon> obstacles;
  double radius = 1.0;
};

/// Perturbed-grid deployment avoiding the obstacle interiors.
Scenario makeScenario(const ScenarioParams& params);

/// Post-processing shared by every scenario source (grid generator, testkit
/// adversarial generators, the shrinker): deduplicates the points and keeps
/// only the largest UDG component, so the result satisfies the paper's
/// connectivity assumption.
Scenario finalizeScenario(std::vector<geom::Vec2> points,
                          std::vector<geom::Polygon> obstacles, double radius);

/// Keeps the points of the largest component of `udg`, the unit disk graph
/// over `points` (the lowest component label wins a tie), in their order,
/// so surviving node ids keep their relative order. Returns how many
/// points were dropped.
int keepLargestComponent(std::vector<geom::Vec2>& points, const graph::GeometricGraph& udg);

/// Convenience: square deployment sized so that roughly `n` nodes survive
/// obstacle carving (before connectivity filtering).
ScenarioParams paramsForNodeCount(std::size_t n, unsigned seed = 1,
                                  double spacing = 0.5);

/// One step of the dynamic scenario (§6): every node makes a random move of
/// at most `maxStep`, rejected if it would enter an obstacle or leave the
/// deployment area. Returns the number of nodes that moved.
int stepMobility(std::vector<geom::Vec2>& points, const std::vector<geom::Polygon>& obstacles,
                 double width, double height, double maxStep, std::mt19937& rng,
                 double clearance = 0.05);

}  // namespace hybrid::scenario
