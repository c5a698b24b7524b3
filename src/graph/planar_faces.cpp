#include "graph/planar_faces.hpp"

#include <algorithm>
#include <utility>

#include "geom/angle.hpp"
#include "geom/polygon.hpp"

namespace hybrid::graph {

void sortCcw(const GeometricGraph& g, NodeId at, std::span<NodeId> nbrs) {
  // One atan2 per neighbour rather than two per comparison.
  thread_local std::vector<std::pair<double, NodeId>> keyed;
  const geom::Vec2 pa = g.position(at);
  keyed.clear();
  for (NodeId nb : nbrs) keyed.emplace_back(geom::directionAngle(pa, g.position(nb)), nb);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < keyed.size(); ++i) nbrs[i] = keyed[i].second;
}

PlanarFaces::PlanarFaces(const GeometricGraph& g, double hullRadius) {
  const auto n = static_cast<NodeId>(g.numNodes());
  // Collinear boundary nodes stay on the hull, so no hull edge runs through
  // a node or along an edge: the augmented graph stays a planar embedding.
  std::vector<std::pair<NodeId, NodeId>> hullEdges;
  const auto ring = geom::convexHullBoundaryIndices(g.positions());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeId a = ring[i];
    const NodeId b = ring[(i + 1) % ring.size()];
    if (g.edgeLength(a, b) > hullRadius && !g.hasEdge(a, b)) hullEdges.emplace_back(a, b);
  }

  // Half-edges grouped by tail, first in discovery order (graph edges, then
  // hull edges), then sorted counter-clockwise.
  start_.assign(g.numNodes() + 1, 0);
  for (NodeId v = 0; v < n; ++v) start_[static_cast<std::size_t>(v) + 1] = g.degree(v);
  for (const auto& [a, b] : hullEdges) {
    ++start_[static_cast<std::size_t>(a) + 1];
    ++start_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t v = 0; v < g.numNodes(); ++v) start_[v + 1] += start_[v];
  std::vector<NodeId> discovery(static_cast<std::size_t>(start_.back()));
  std::vector<int> fill(start_.begin(), start_.end() - 1);
  const auto append = [&](NodeId v, NodeId nb) {
    discovery[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] = nb;
  };
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId nb : g.neighbors(v)) append(v, nb);
  }
  for (const auto& [a, b] : hullEdges) {
    append(a, b);
    append(b, a);
  }
  head_ = discovery;
  for (NodeId v = 0; v < n; ++v) {
    sortCcw(g, v, {head_.data() + out(v), head_.data() + out(v + 1)});
  }
  twin_.resize(head_.size());
  hull_.resize(head_.size());
  for (NodeId v = 0; v < n; ++v) {
    for (int h = out(v); h < out(v + 1); ++h) {
      twin_[static_cast<std::size_t>(h)] = find(head(h), v);
      hull_[static_cast<std::size_t>(h)] = !g.hasEdge(v, head(h));
    }
  }

  face_.assign(head_.size(), -1);
  faceStart_.assign(1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (int i = out(u); i < out(u + 1); ++i) {
      const int first = find(u, discovery[static_cast<std::size_t>(i)]);
      if (faceOf(first) >= 0) continue;
      const int f = numFaces();
      double area2 = 0.0;
      bool touchesHull = false;
      for (int h = first; faceOf(h) < 0; h = next(h)) {
        face_[static_cast<std::size_t>(h)] = f;
        walk_.push_back(h);
        walkNodes_.push_back(tail(h));
        area2 += g.position(tail(h)).cross(g.position(head(h)));
        touchesHull = touchesHull || isHull(h);
      }
      faceStart_.push_back(static_cast<int>(walk_.size()));
      outer_.push_back(area2 <= 0.0);
      hullFace_.push_back(touchesHull);
    }
  }
}

int PlanarFaces::find(NodeId u, NodeId v) const {
  const auto last = head_.begin() + out(u + 1);
  const auto it = std::find(head_.begin() + out(u), last, v);
  return it == last ? -1 : static_cast<int>(it - head_.begin());
}

}  // namespace hybrid::graph
