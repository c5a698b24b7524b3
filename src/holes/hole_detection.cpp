#include "holes/hole_detection.hpp"

#include <utility>

namespace hybrid::holes {

std::vector<geom::Polygon> HoleAnalysis::holePolygons() const {
  std::vector<geom::Polygon> out;
  out.reserve(holes.size());
  for (const Hole& h : holes) out.push_back(h.polygon);
  return out;
}

HoleAnalysis detectHoles(const graph::GeometricGraph& ldel, double radius) {
  HoleAnalysis out;
  out.radius = radius;
  out.faces = std::make_shared<const graph::PlanarFaces>(ldel, radius);
  const graph::PlanarFaces& faces = *out.faces;
  out.holeOfFace.assign(static_cast<std::size_t>(faces.numFaces()), -1);

  // Inner holes are the bounded faces of LDel^2 itself with >= 4 distinct
  // nodes; outer holes the bounded faces closed by a hull edge, all of which
  // are longer than the radius.
  std::vector<int> lastFace(ldel.numNodes(), -1);
  for (const bool outer : {false, true}) {
    for (int f = 0; f < faces.numFaces(); ++f) {
      if (faces.isOuter(f) || faces.touchesHull(f) != outer) continue;
      int distinct = 0;
      for (graph::NodeId v : faces.cycle(f)) {
        if (std::exchange(lastFace[static_cast<std::size_t>(v)], f) != f) ++distinct;
      }
      if (distinct < (outer ? 3 : 4)) continue;
      out.holeOfFace[static_cast<std::size_t>(f)] = static_cast<int>(out.holes.size());
      Hole& h = out.holes.emplace_back();
      h.ring.assign(faces.cycle(f).begin(), faces.cycle(f).end());
      std::vector<geom::Vec2> pts;
      pts.reserve(h.ring.size());
      for (graph::NodeId v : h.ring) pts.push_back(ldel.position(v));
      h.polygon = geom::Polygon(std::move(pts));
      h.outer = outer;
    }
  }

  // The outer walk of LDel^2 runs along the half-edges of the faces that
  // are outer or closed by a hull edge; trace it with hull edges skipped.
  // Keep the longest walk in case isolated components produce several.
  std::vector<char> traced(static_cast<std::size_t>(faces.numHalfEdges()), 0);
  for (graph::NodeId u = 0; u < static_cast<graph::NodeId>(ldel.numNodes()); ++u) {
    for (graph::NodeId v : ldel.neighbors(u)) {
      const int start = faces.find(u, v);
      const int f = faces.faceOf(start);
      const bool onOuterWalk = faces.isOuter(f) || faces.touchesHull(f);
      if (!onOuterWalk || traced[static_cast<std::size_t>(start)]) continue;
      std::vector<graph::NodeId> walk;
      for (int h = start; !traced[static_cast<std::size_t>(h)];) {
        traced[static_cast<std::size_t>(h)] = 1;
        walk.push_back(faces.tail(h));
        h = faces.next(h);
        while (faces.isHull(h)) h = faces.cw(h);
      }
      if (walk.size() > out.outerBoundary.size()) out.outerBoundary = std::move(walk);
    }
  }

  out.isHoleNode.assign(ldel.numNodes(), 0);
  out.holesOfNode.assign(ldel.numNodes(), {});
  for (std::size_t hi = 0; hi < out.holes.size(); ++hi) {
    for (graph::NodeId v : out.holes[hi].ring) {
      out.isHoleNode[static_cast<std::size_t>(v)] = 1;
      auto& list = out.holesOfNode[static_cast<std::size_t>(v)];
      if (list.empty() || list.back() != static_cast<int>(hi)) {
        list.push_back(static_cast<int>(hi));
      }
    }
  }
  return out;
}

}  // namespace hybrid::holes
