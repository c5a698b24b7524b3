#include "routing/subdivision.hpp"

#include <stdexcept>
#include <vector>

#include "geom/polygon.hpp"

namespace hybrid::routing {

PlanarSubdivision::PlanarSubdivision(const graph::GeometricGraph& ldel,
                                     const holes::HoleAnalysis& analysis, double radius)
    : g_(ldel), analysis_(analysis), faces_(*analysis.faces) {
  if (radius != analysis.radius) {
    throw std::invalid_argument("PlanarSubdivision: radius differs from the hole analysis'");
  }
}

int PlanarSubdivision::faceLeftOf(graph::NodeId u, graph::NodeId v) const {
  const int h = faces_.find(u, v);
  return h < 0 ? -1 : faces_.faceOf(h);
}

int PlanarSubdivision::incidentFaceContaining(graph::NodeId v, geom::Vec2 p) const {
  thread_local std::vector<geom::Vec2> ring;
  for (int h = faces_.out(v); h < faces_.out(v + 1); ++h) {
    const int f = faces_.faceOf(h);
    if (faces_.isOuter(f)) continue;
    ring.clear();
    for (graph::NodeId u : faces_.cycle(f)) ring.push_back(g_.position(u));
    if (geom::ringContainsStrict(ring, p)) return f;
  }
  return -1;
}

}  // namespace hybrid::routing
