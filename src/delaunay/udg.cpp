#include "delaunay/udg.hpp"

#include "spatial/grid_index.hpp"

namespace hybrid::delaunay {

graph::GeometricGraph buildUnitDiskGraph(const std::vector<geom::Vec2>& points,
                                         double radius) {
  graph::GeometricGraph g(points);
  const spatial::GridIndex grid(points, radius);
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    grid.forEachWithin(
        points[static_cast<std::size_t>(i)], radius,
        [&](int j) {
          g.addEdge(i, j);
          return true;
        },
        i);
  }
  return g;
}

}  // namespace hybrid::delaunay
