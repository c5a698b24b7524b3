#include "scenario/generator.hpp"

#include <algorithm>
#include <cmath>

#include "delaunay/udg.hpp"
#include "geom/segment.hpp"

namespace hybrid::scenario {

namespace {

bool nearObstacle(geom::Vec2 p, const std::vector<geom::Polygon>& obstacles,
                  double clearance) {
  for (const auto& poly : obstacles) {
    geom::BBox box = poly.boundingBox();
    box.expand({box.lo.x - clearance, box.lo.y - clearance});
    box.expand({box.hi.x + clearance, box.hi.y + clearance});
    if (!box.contains(p)) continue;
    if (poly.contains(p)) return true;
    for (std::size_t i = 0; i < poly.size(); ++i) {
      if (geom::pointSegmentDistance(p, poly.edge(i)) < clearance) return true;
    }
  }
  return false;
}

}  // namespace

Scenario finalizeScenario(std::vector<geom::Vec2> pts,
                          std::vector<geom::Polygon> obstacles, double radius) {
  // Deduplicate (for generated clouds collisions are measure-zero, but
  // adversarial testkit generators hit them on purpose).
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

  // Keep the largest UDG component so the connectivity assumption holds.
  keepLargestComponent(pts, delaunay::buildUnitDiskGraph(pts, radius));

  Scenario s;
  s.points = std::move(pts);
  s.obstacles = std::move(obstacles);
  s.radius = radius;
  return s;
}

int keepLargestComponent(std::vector<geom::Vec2>& points, const graph::GeometricGraph& udg) {
  int numComp = 0;
  const auto labels = udg.componentLabels(&numComp);
  if (numComp <= 1) return 0;
  std::vector<int> sizes(static_cast<std::size_t>(numComp), 0);
  for (int l : labels) ++sizes[static_cast<std::size_t>(l)];
  const int keep =
      static_cast<int>(std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<geom::Vec2> filtered;
  filtered.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (labels[i] == keep) filtered.push_back(points[i]);
  }
  const int dropped = static_cast<int>(points.size() - filtered.size());
  points = std::move(filtered);
  return dropped;
}

Scenario makeScenario(const ScenarioParams& params) {
  std::mt19937 rng(params.seed);
  std::uniform_real_distribution<double> jit(-params.jitter * params.spacing,
                                             params.jitter * params.spacing);
  std::vector<geom::Vec2> pts;
  for (double y = params.spacing / 2.0; y < params.height; y += params.spacing) {
    for (double x = params.spacing / 2.0; x < params.width; x += params.spacing) {
      const geom::Vec2 p{x + jit(rng), y + jit(rng)};
      if (p.x < 0.0 || p.y < 0.0 || p.x > params.width || p.y > params.height) continue;
      if (nearObstacle(p, params.obstacles, params.clearance)) continue;
      pts.push_back(p);
    }
  }
  return finalizeScenario(std::move(pts), params.obstacles, params.radius);
}

ScenarioParams paramsForNodeCount(std::size_t n, unsigned seed, double spacing) {
  ScenarioParams p;
  p.spacing = spacing;
  p.seed = seed;
  const double side = std::sqrt(static_cast<double>(n)) * spacing;
  p.width = side;
  p.height = side;
  return p;
}

int stepMobility(std::vector<geom::Vec2>& points, const std::vector<geom::Polygon>& obstacles,
                 double width, double height, double maxStep, std::mt19937& rng,
                 double clearance) {
  std::uniform_real_distribution<double> step(-maxStep, maxStep);
  int moved = 0;
  for (auto& p : points) {
    const geom::Vec2 cand{p.x + step(rng), p.y + step(rng)};
    if (cand.x < 0.0 || cand.y < 0.0 || cand.x > width || cand.y > height) continue;
    if (nearObstacle(cand, obstacles, clearance)) continue;
    p = cand;
    ++moved;
  }
  return moved;
}

}  // namespace hybrid::scenario
