#include "abstraction/hole_abstraction.hpp"

#include <algorithm>
#include <set>

#include "geom/angle.hpp"

namespace hybrid::abstraction {

bool anyHullsIntersect(const std::vector<HoleAbstraction>& abstractions) {
  for (std::size_t i = 0; i < abstractions.size(); ++i) {
    for (std::size_t j = i + 1; j < abstractions.size(); ++j) {
      if (geom::convexPolygonsIntersect(abstractions[i].hullPolygon,
                                        abstractions[j].hullPolygon)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<graph::NodeId> locallyConvexHullOfRing(const graph::GeometricGraph& g,
                                                   std::vector<graph::NodeId> ring,
                                                   double radius) {
  bool changed = true;
  while (changed && ring.size() > 3) {
    changed = false;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const std::size_t n = ring.size();
      const graph::NodeId u = ring[(i + n - 1) % n];
      const graph::NodeId v = ring[i];
      const graph::NodeId w = ring[(i + 1) % n];
      if (u == v || v == w) {  // repeated vertices from face walks
        ring.erase(ring.begin() + static_cast<long>(i));
        changed = true;
        break;
      }
      const double turn = geom::signedTurnAngle(g.position(u), g.position(v), g.position(w));
      // The ring runs ccw around the hole, so a non-left turn means an
      // interior angle >= 180 degrees (Def. 4.1 condition 2).
      if (turn <= 0.0 && g.edgeLength(u, w) <= radius) {
        ring.erase(ring.begin() + static_cast<long>(i));
        changed = true;
        break;
      }
    }
  }
  return ring;
}

std::vector<HoleAbstraction> buildAbstractions(const graph::GeometricGraph& ldel,
                                               const holes::HoleAnalysis& analysis,
                                               double radius) {
  std::vector<HoleAbstraction> out;
  out.reserve(analysis.holes.size());
  for (std::size_t hi = 0; hi < analysis.holes.size(); ++hi) {
    const holes::Hole& hole = analysis.holes[hi];
    HoleAbstraction a;
    a.holeIndex = static_cast<int>(hi);
    a.perimeter = hole.perimeter();

    const auto hullOfPositions = geom::convexHullIndices(hole.polygon.vertices());
    std::set<graph::NodeId> hullSet;
    // Hull nodes in convex-hull cyclic (ccw) order, so that consecutive
    // hullNodes are genuinely adjacent hull corners (the overlay backbone
    // relies on this; the ring's first-occurrence order can differ on
    // pinched walks).
    for (int idx : hullOfPositions) {
      const graph::NodeId v = hole.ring[static_cast<std::size_t>(idx)];
      if (hullSet.insert(v).second) a.hullNodes.push_back(v);
    }
    std::vector<geom::Vec2> hullPts;
    hullPts.reserve(a.hullNodes.size());
    for (graph::NodeId v : a.hullNodes) hullPts.push_back(ldel.position(v));
    a.hullPolygon = geom::Polygon(hullPts);

    // Bay construction walks the ring, so it needs the hull occurrences in
    // ring order (first occurrence).
    std::vector<std::size_t> hullRingIndices;
    std::set<graph::NodeId> seen;
    for (std::size_t i = 0; i < hole.ring.size(); ++i) {
      const graph::NodeId v = hole.ring[i];
      if (hullSet.contains(v) && !seen.contains(v)) {
        seen.insert(v);
        hullRingIndices.push_back(i);
      }
    }
    a.bboxCircumference = a.hullPolygon.boundingBox().circumference();

    // Bays: ring stretches strictly between consecutive hull occurrences.
    const std::size_t rn = hole.ring.size();
    for (std::size_t j = 0; j < hullRingIndices.size(); ++j) {
      const std::size_t from = hullRingIndices[j];
      const std::size_t to = hullRingIndices[(j + 1) % hullRingIndices.size()];
      BayArea bay;
      bay.hullFrom = hole.ring[from];
      bay.hullTo = hole.ring[to];
      for (std::size_t i = (from + 1) % rn; i != to; i = (i + 1) % rn) {
        bay.chain.push_back(hole.ring[i]);
      }
      if (!bay.chain.empty()) a.bays.push_back(std::move(bay));
    }

    a.locallyConvexHull = locallyConvexHullOfRing(ldel, hole.ring, radius);
    out.push_back(std::move(a));
  }
  return out;
}

StorageReport accountStorage(const graph::GeometricGraph& ldel,
                             const holes::HoleAnalysis& analysis,
                             const std::vector<HoleAbstraction>& abstractions,
                             const std::vector<std::vector<graph::NodeId>>& bayDominatingSets) {
  StorageReport rep;
  rep.perNode.assign(ldel.numNodes(), 1);  // every node knows itself/greedy state

  std::set<graph::NodeId> hullNodes;
  for (const auto& a : abstractions) {
    hullNodes.insert(a.hullNodes.begin(), a.hullNodes.end());
  }
  rep.totalHullNodes = static_cast<long>(hullNodes.size());

  // Boundary nodes: two hull-node references plus their bay's dominating
  // set (used by the case-5 routing of section 4.4).
  std::size_t bayIdx = 0;
  for (const auto& a : abstractions) {
    for (const auto& bay : a.bays) {
      const long ds = bayIdx < bayDominatingSets.size()
                          ? static_cast<long>(bayDominatingSets[bayIdx].size())
                          : 0;
      for (graph::NodeId v : bay.chain) {
        rep.perNode[static_cast<std::size_t>(v)] =
            std::max(rep.perNode[static_cast<std::size_t>(v)], 2 + ds);
      }
      ++bayIdx;
    }
  }
  // Hull nodes: the overlay Delaunay graph over all hull nodes.
  for (graph::NodeId v : hullNodes) {
    rep.perNode[static_cast<std::size_t>(v)] = rep.totalHullNodes;
  }

  for (std::size_t v = 0; v < ldel.numNodes(); ++v) {
    const bool onBoundary = analysis.isHoleNode[v] != 0;
    const bool onHull = hullNodes.contains(static_cast<graph::NodeId>(v));
    if (onHull) {
      rep.maxHullNodeStorage = std::max(rep.maxHullNodeStorage, rep.perNode[v]);
    } else if (onBoundary) {
      rep.maxBoundaryNodeStorage = std::max(rep.maxBoundaryNodeStorage, rep.perNode[v]);
    } else {
      rep.maxOtherNodeStorage = std::max(rep.maxOtherNodeStorage, rep.perNode[v]);
    }
  }
  return rep;
}

}  // namespace hybrid::abstraction
