#include "routing/chew.hpp"

#include <algorithm>
#include <cmath>

#include "geom/predicates.hpp"
#include "geom/segment.hpp"

namespace hybrid::routing {

namespace {

// Parameter of point p along the segment (a, b), 0 at a and 1 at b.
double paramAlong(geom::Vec2 a, geom::Vec2 b, geom::Vec2 p) {
  const geom::Vec2 d = b - a;
  const double len2 = d.norm2();
  return len2 == 0.0 ? 0.0 : (p - a).dot(d) / len2;
}

}  // namespace

bool ChewRouter::extend(std::vector<graph::NodeId>& path, graph::NodeId target,
                        int* blockedHole) const {
  if (blockedHole != nullptr) *blockedHole = -1;
  if (path.empty()) return false;
  const graph::PlanarFaces& faces = sub_.faces();
  const std::size_t maxSteps = 8 * static_cast<std::size_t>(faces.numFaces()) + 64;

  for (std::size_t outer = 0; outer < maxSteps; ++outer) {
    graph::NodeId cur = path.back();
    if (cur == target) return true;
    if (g_.hasEdge(cur, target)) {
      path.push_back(target);
      return true;
    }

    const geom::Vec2 ps = g_.position(cur);
    const geom::Vec2 pt = g_.position(target);
    const double segLen = geom::dist(ps, pt);
    const geom::Vec2 dir = (pt - ps) / segLen;

    // A neighbor lying exactly on the segment ahead is always the right
    // hop (and the probe below would fall on that collinear edge, where
    // strict face containment fails). Pick the nearest one.
    {
      graph::NodeId onSeg = -1;
      double bestParam = 2.0;
      for (graph::NodeId nb : g_.neighbors(cur)) {
        const geom::Vec2 pn = g_.position(nb);
        if (!geom::onSegment(ps, pt, pn)) continue;
        const double param = paramAlong(ps, pt, pn);
        if (param > 1e-15 && param < bestParam) {
          bestParam = param;
          onSeg = nb;
        }
      }
      if (onSeg >= 0) {
        path.push_back(onSeg);
        continue;
      }
    }

    const geom::Vec2 probe = ps + dir * std::min(1e-6, segLen / 2.0);
    int face = sub_.incidentFaceContaining(cur, probe);
    if (face < 0) return false;  // outside the hull of V or degenerate
    if (!sub_.isWalkable(face)) {
      if (blockedHole != nullptr) *blockedHole = sub_.holeOfFace(face);
      return false;
    }

    // Triangle corridor walk along the fixed segment (ps, pt).
    int entry = -1;  // the half-edge the walk entered the face over
    double entryParam = 0.0;
    bool restart = false;
    for (std::size_t inner = 0; inner < maxSteps; ++inner) {
      const auto cycle = faces.cycle(face);

      // Target is a corner of the current triangle: final hop.
      if (std::find(cycle.begin(), cycle.end(), target) != cycle.end()) {
        path.push_back(target);
        return true;
      }
      // Segment passes exactly through a corner: hop there and restart the
      // walk from that node (measure-zero in random instances, but exact).
      bool hopped = false;
      for (graph::NodeId v : cycle) {
        if (v == cur) continue;
        if (geom::onSegment(ps, pt, g_.position(v)) &&
            paramAlong(ps, pt, g_.position(v)) > entryParam + 1e-12) {
          path.push_back(v);
          restart = true;
          hopped = true;
          break;
        }
      }
      if (hopped) break;

      // Exit edge: the boundary edge properly crossed by (ps, pt) beyond
      // the entry parameter.
      const auto edges = faces.halfEdges(face);
      int exitEdge = -1;
      double exitParam = 0.0;
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        const int h = edges[i];
        if (h == entry) continue;
        const graph::NodeId a = cycle[i];
        const graph::NodeId b = faces.head(h);
        const geom::Segment e{g_.position(a), g_.position(b)};
        if (!geom::segmentsCrossProperly({ps, pt}, e)) continue;
        const auto ip = geom::segmentIntersectionPoint({ps, pt}, e);
        if (!ip) continue;
        const double tp = paramAlong(ps, pt, *ip);
        if (tp <= entryParam - 1e-12) continue;
        if (exitEdge < 0 || tp < exitParam) {
          exitEdge = h;
          exitParam = tp;
        }
      }
      if (exitEdge < 0) return false;  // numerical corner case; caller falls back
      const graph::NodeId exitA = faces.tail(exitEdge);
      const graph::NodeId exitB = faces.head(exitEdge);

      // Keep the message on the crossed edge: hop to one of its endpoints
      // if not already there (all corners of a triangle are adjacent).
      if (cur != exitA && cur != exitB) {
        const graph::NodeId next =
            geom::dist(g_.position(exitA), pt) <= geom::dist(g_.position(exitB), pt)
                ? exitA
                : exitB;
        path.push_back(next);
        cur = next;
      }

      entry = faces.twin(exitEdge);
      face = faces.faceOf(entry);
      if (sub_.isOuterFace(face)) return false;  // corridor leaves the hull of V
      if (!sub_.isWalkable(face)) {
        if (blockedHole != nullptr) *blockedHole = sub_.holeOfFace(face);
        return false;  // cur sits on the hole boundary edge (exitA, exitB)
      }
      entryParam = exitParam;
    }
    if (!restart) return false;
  }
  return false;
}

RouteResult ChewRouter::route(graph::NodeId source, graph::NodeId target) const {
  RouteResult r;
  r.path.push_back(source);
  r.delivered = extend(r.path, target, &r.blockedHole);
  return r;
}

}  // namespace hybrid::routing
