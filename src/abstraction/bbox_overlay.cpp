#include "abstraction/bbox_overlay.hpp"

#include <algorithm>
#include <limits>

#include "geom/vec2.hpp"
#include "graph/dsu.hpp"

namespace hybrid::abstraction {
namespace {

/// Ring node nearest (squared Euclidean) to a target point; ties break on
/// the smaller ring index so the selection is deterministic.
std::size_t nearestRingIndex(const graph::GeometricGraph& ldel,
                             const std::vector<graph::NodeId>& ring, geom::Vec2 target) {
  std::size_t best = 0;
  double bestD = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const geom::Vec2 p = ldel.position(ring[i]);
    const double d = geom::dist2(p, target);
    if (d < bestD) {
      bestD = d;
      best = i;
    }
  }
  return best;
}

/// Corner/projection rule: the nearest ring node to each of the four box
/// corners plus the ring nodes realizing the four axis extremes of the
/// hole itself. Deduped and returned in ring order — at most 8 sites.
std::vector<graph::NodeId> selectHoleSites(const graph::GeometricGraph& ldel,
                                           const std::vector<graph::NodeId>& ring,
                                           const geom::BBox& box) {
  if (ring.empty()) return {};
  std::vector<std::size_t> picks;
  picks.reserve(8);
  const geom::Vec2 corners[4] = {box.lo, {box.hi.x, box.lo.y}, box.hi, {box.lo.x, box.hi.y}};
  for (const geom::Vec2 c : corners) picks.push_back(nearestRingIndex(ldel, ring, c));
  // Axis extremes of the hole boundary (projection onto the box sides).
  std::size_t minX = 0, maxX = 0, minY = 0, maxY = 0;
  for (std::size_t i = 1; i < ring.size(); ++i) {
    const geom::Vec2 p = ldel.position(ring[i]);
    if (p.x < ldel.position(ring[minX]).x) minX = i;
    if (p.x > ldel.position(ring[maxX]).x) maxX = i;
    if (p.y < ldel.position(ring[minY]).y) minY = i;
    if (p.y > ldel.position(ring[maxY]).y) maxY = i;
  }
  picks.push_back(minX);
  picks.push_back(maxX);
  picks.push_back(minY);
  picks.push_back(maxY);
  std::sort(picks.begin(), picks.end());
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  std::vector<graph::NodeId> sites;
  sites.reserve(picks.size());
  for (const std::size_t i : picks) sites.push_back(ring[i]);
  return sites;
}

}  // namespace

std::vector<BBoxGroup> buildBBoxOverlay(const graph::GeometricGraph& ldel,
                                        const holes::HoleAnalysis& analysis,
                                        const std::vector<HoleAbstraction>& abstractions) {
  const int n = static_cast<int>(abstractions.size());
  if (n == 0) return {};

  // Per-hole boxes over the boundary ring (not just the hull nodes: the
  // box must cover the whole hole so merged boxes stay obstacle-covering).
  std::vector<geom::BBox> boxes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& ring = analysis.holes[static_cast<std::size_t>(
        abstractions[static_cast<std::size_t>(i)].holeIndex)].ring;
    for (const graph::NodeId v : ring) boxes[static_cast<std::size_t>(i)].expand(ldel.position(v));
  }

  // Merge intersecting boxes to a fixpoint: a union box can grow into a
  // box it did not previously touch, so repeat until no pass merges.
  graph::DisjointSetUnion dsu(static_cast<std::size_t>(n));
  std::vector<geom::BBox> groupBox = boxes;
  bool merged = true;
  while (merged) {
    merged = false;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const int ri = dsu.find(i);
        const int rj = dsu.find(j);
        if (ri == rj) continue;
        if (!groupBox[static_cast<std::size_t>(ri)].intersects(
                groupBox[static_cast<std::size_t>(rj)]))
          continue;
        dsu.unite(ri, rj);
        const int root = dsu.find(ri);
        geom::BBox u = groupBox[static_cast<std::size_t>(ri)];
        u.expand(groupBox[static_cast<std::size_t>(rj)].lo);
        u.expand(groupBox[static_cast<std::size_t>(rj)].hi);
        groupBox[static_cast<std::size_t>(root)] = u;
        merged = true;
      }
    }
  }

  // Assemble groups ordered by smallest member index, so which member the
  // union-find makes the root never reaches the output.
  std::vector<BBoxGroup> groups;
  std::vector<int> groupOf(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const int root = dsu.find(i);
    if (groupOf[static_cast<std::size_t>(root)] < 0) {
      groupOf[static_cast<std::size_t>(root)] = static_cast<int>(groups.size());
      BBoxGroup g;
      g.box = groupBox[static_cast<std::size_t>(root)];
      groups.push_back(std::move(g));
    }
    groups[static_cast<std::size_t>(groupOf[static_cast<std::size_t>(root)])].members.push_back(i);
  }

  // Site selection against the final merged box of each group.
  for (auto& g : groups) {
    g.holeSites.reserve(g.members.size());
    for (const int m : g.members) {
      BBoxHoleSites hs;
      hs.abstraction = m;
      const auto& ring = analysis.holes[static_cast<std::size_t>(
          abstractions[static_cast<std::size_t>(m)].holeIndex)].ring;
      hs.sites = selectHoleSites(ldel, ring, g.box);
      g.holeSites.push_back(std::move(hs));
    }
  }
  return groups;
}

}  // namespace hybrid::abstraction
