#include "routing/hybrid_router.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "abstraction/bbox_overlay.hpp"
#include "geom/segment.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"

namespace hybrid::routing {

namespace {

// Index of `v` in `ring`, or -1.
int indexIn(const std::vector<graph::NodeId>& ring, graph::NodeId v) {
  const auto it = std::find(ring.begin(), ring.end(), v);
  return it == ring.end() ? -1 : static_cast<int>(it - ring.begin());
}

}  // namespace

OverlayPlan HybridRouter::planOverlay(
    const graph::GeometricGraph& ldel, const holes::HoleAnalysis& analysis,
    const std::vector<abstraction::HoleAbstraction>& abstractions,
    const HybridOptions& options) {
  OverlayPlan plan;
  plan.sites = options.sites;
  plan.edges = options.edges;
  // Resolve the abstraction mode: Auto keeps the paper's convex hulls
  // while they are pairwise disjoint and switches to the bounding-box
  // overlay (which merges boxes to disjointness) when hulls interlock —
  // the scenarios the hull router can only serve via A* fallback.
  if (options.abstraction == AbstractionMode::BBox ||
      (options.abstraction == AbstractionMode::Auto &&
       abstraction::anyHullsIntersect(abstractions))) {
    plan.bbox = true;
    const auto groups = abstraction::buildBBoxOverlay(ldel, analysis, abstractions);
    for (const auto& grp : groups) {
      for (const auto& hs : grp.holeSites) {
        if (!hs.sites.empty()) plan.rings.push_back(hs.sites);
      }
    }
  } else if (options.sites == SiteMode::AllHoleNodes) {
    for (const auto& h : analysis.holes) plan.rings.push_back(h.ring);
  } else {
    const bool lch = options.sites == SiteMode::LocallyConvexHull;
    for (const auto& a : abstractions) {
      plan.rings.push_back(lch ? a.locallyConvexHull : a.hullNodes);
    }
  }
  for (const auto& ring : plan.rings) {
    for (const graph::NodeId v : ring) plan.ringPositions.push_back(ldel.position(v));
  }
  for (const auto& poly : analysis.holePolygons()) plan.holePolygons.push_back(poly.vertices());
  return plan;
}

HybridRouter::HybridRouter(const graph::GeometricGraph& ldel,
                           const holes::HoleAnalysis& analysis,
                           const std::vector<abstraction::HoleAbstraction>& abstractions,
                           const PlanarSubdivision& sub, HybridOptions options,
                           const HybridRouter* overlayDonor)
    : g_(ldel),
      analysis_(analysis),
      abstractions_(abstractions),
      chew_(ldel, sub),
      overlayPlan_(planOverlay(ldel, analysis, abstractions, options)) {
  if (overlayDonor != nullptr && overlayDonor->overlay_ != nullptr &&
      overlayDonor->overlayPlan_ == overlayPlan_) {
    // Epoch-snapshot fast path: the donor's overlay was built from inputs
    // byte-identical to this plan, and overlay builds are deterministic,
    // so a fresh build would reproduce it bit for bit — adopt the slab.
    overlay_ = overlayDonor->overlay_;
    adoptedOverlay_ = true;
  } else {
    // Bbox sites are a sparse subset of each hole ring; consecutive sites
    // are reachable along the ring even when the straight chord crosses
    // the hole, so the backbone is declared ring-walkable.
    overlay_ = std::make_shared<const OverlayGraph>(ldel, overlayPlan_.rings,
                                                    analysis.holePolygons(), overlayPlan_.edges,
                                                    /*ringBackbone=*/overlayPlan_.bbox);
  }

  // Mark the overlay sites; a hole node that intercepts a message walks
  // the ring to the nearest one (§4.3).
  isHullNode_.assign(g_.numNodes(), 0);
  for (const graph::NodeId v : overlay_->sites()) isHullNode_[static_cast<std::size_t>(v)] = 1;
  holeToAbstraction_.assign(analysis.holes.size(), -1);
  bayPolys_.resize(abstractions.size());
  for (std::size_t ai = 0; ai < abstractions.size(); ++ai) {
    const auto& a = abstractions[ai];
    if (a.holeIndex >= 0) holeToAbstraction_[static_cast<std::size_t>(a.holeIndex)] =
        static_cast<int>(ai);
    // Bbox mode routes purely outside (boxes have no bays).
    if (overlayPlan_.bbox) continue;
    for (const auto& bay : a.bays) {
      bayDS_.push_back(abstraction::pathDominatingSet(bay.chain));
      std::vector<geom::Vec2> poly;
      poly.push_back(g_.position(bay.hullFrom));
      for (graph::NodeId v : bay.chain) poly.push_back(g_.position(v));
      poly.push_back(g_.position(bay.hullTo));
      bayPolys_[ai].emplace_back(std::move(poly));
    }
  }
}

std::string HybridRouter::name() const {
  std::string n = "boundary";
  if (overlayPlan_.sites == SiteMode::HullNodes) n = "hull";
  if (overlayPlan_.sites == SiteMode::LocallyConvexHull) n = "lch";
  n += overlayPlan_.edges == EdgeMode::Delaunay ? "-delaunay" : "-visibility";
  if (overlayPlan_.bbox) n += "+bbox";
  return "hybrid-" + n;
}

std::optional<HybridRouter::BayLocation> HybridRouter::locate(geom::Vec2 p) const {
  for (std::size_t ai = 0; ai < abstractions_.size(); ++ai) {
    const auto& a = abstractions_[ai];
    if (a.hullPolygon.size() < 3 || !a.hullPolygon.contains(p)) continue;
    // Hull corners themselves count as outside (they are overlay sites).
    if (std::find(a.hullPolygon.vertices().begin(), a.hullPolygon.vertices().end(), p) !=
        a.hullPolygon.vertices().end()) {
      continue;
    }
    for (std::size_t bi = 0; bi < bayPolys_[ai].size(); ++bi) {
      if (bayPolys_[ai][bi].contains(p)) {
        return BayLocation{static_cast<int>(ai), static_cast<int>(bi)};
      }
    }
  }
  return std::nullopt;
}

bool HybridRouter::chewOrFallback(std::vector<graph::NodeId>& path, graph::NodeId target,
                                  int* fallbacks) const {
  if (path.back() == target) return true;
  int blocked = -1;
  if (chew_.extend(path, target, &blocked)) return true;
  if (overlayPlan_.bbox) {
    if (ringWalkBetween(path, target)) return true;
    // Route-around-the-box: a blocked leg resumes after walking the
    // blocking hole's ring toward the target (bounded retries — each
    // rescue must change the frontier node, so the loop cannot cycle
    // for long before falling through to A*).
    for (int rescue = 0; rescue < 16 && blocked >= 0; ++rescue) {
      if (!ringWalkTowards(path, blocked, target)) break;
      blocked = -1;
      if (chew_.extend(path, target, &blocked)) return true;
      if (ringWalkBetween(path, target)) return true;
    }
  }
  return spliceAStar(path, target, fallbacks);
}

bool HybridRouter::spliceAStar(std::vector<graph::NodeId>& path, graph::NodeId target,
                               int* fallbacks) const {
  const auto sp = graph::astarPath(g_, path.back(), target);
  if (sp.empty()) return false;
  path.insert(path.end(), sp.begin() + 1, sp.end());
  ++(*fallbacks);
  // Count every abstraction fallback (hull intersections, blocked Chew
  // legs) so experiments can attribute protocol coverage.
  HYBRID_OBS_STMT(if (obs::enabled()) {
    obs::Registry::global().counter("overlay.abstraction.fallbacks").add(1);
  });
  return true;
}

void HybridRouter::ringWalkToHullNode(std::vector<graph::NodeId>& path, int holeIdx) const {
  const int ai = holeToAbstraction_[static_cast<std::size_t>(holeIdx)];
  if (ai < 0) return;
  const auto& ring = analysis_.holes[static_cast<std::size_t>(holeIdx)].ring;
  const graph::NodeId cur = path.back();
  if (isHullNode_[static_cast<std::size_t>(cur)] != 0) return;
  const int start = indexIn(ring, cur);
  if (start < 0) return;

  // Walk both directions along the ring; stop at the nearest hull node.
  const int n = static_cast<int>(ring.size());
  std::vector<graph::NodeId> fwd;
  std::vector<graph::NodeId> bwd;
  for (int step = 1; step < n; ++step) {
    const graph::NodeId f = ring[static_cast<std::size_t>((start + step) % n)];
    fwd.push_back(f);
    if (isHullNode_[static_cast<std::size_t>(f)] != 0) break;
  }
  for (int step = 1; step < n; ++step) {
    const graph::NodeId b = ring[static_cast<std::size_t>((start - step % n + n) % n)];
    bwd.push_back(b);
    if (isHullNode_[static_cast<std::size_t>(b)] != 0) break;
  }
  const bool fwdOk = !fwd.empty() && isHullNode_[static_cast<std::size_t>(fwd.back())] != 0;
  const bool bwdOk = !bwd.empty() && isHullNode_[static_cast<std::size_t>(bwd.back())] != 0;
  const std::vector<graph::NodeId>* pick = nullptr;
  if (fwdOk && (!bwdOk || fwd.size() <= bwd.size())) {
    pick = &fwd;
  } else if (bwdOk) {
    pick = &bwd;
  }
  if (pick != nullptr) path.insert(path.end(), pick->begin(), pick->end());
}

bool HybridRouter::ringWalkTowards(std::vector<graph::NodeId>& path, int holeIdx,
                                   graph::NodeId target) const {
  const auto& ring = analysis_.holes[static_cast<std::size_t>(holeIdx)].ring;
  const graph::NodeId cur = path.back();
  const int ci = indexIn(ring, cur);
  if (ci < 0) return false;
  const geom::Vec2 pt = g_.position(target);
  int best = ci;
  double bestD = geom::dist2(g_.position(cur), pt);
  for (int i = 0; i < static_cast<int>(ring.size()); ++i) {
    const double d = geom::dist2(g_.position(ring[static_cast<std::size_t>(i)]), pt);
    if (d < bestD) {
      bestD = d;
      best = i;
    }
  }
  if (best == ci) return false;
  return ringWalkBetween(path, ring[static_cast<std::size_t>(best)]);
}

bool HybridRouter::ringWalkBetween(std::vector<graph::NodeId>& path,
                                   graph::NodeId target) const {
  const graph::NodeId cur = path.back();
  const auto& holesOf = analysis_.holesOfNode;
  if (static_cast<std::size_t>(cur) >= holesOf.size() ||
      static_cast<std::size_t>(target) >= holesOf.size()) {
    return false;
  }
  for (const int h : holesOf[static_cast<std::size_t>(cur)]) {
    const auto& ring = analysis_.holes[static_cast<std::size_t>(h)].ring;
    const int ci = indexIn(ring, cur);
    const int ti = indexIn(ring, target);
    if (ci < 0 || ti < 0) continue;
    if (ci == ti) return true;
    const int n = static_cast<int>(ring.size());
    auto arcLength = [&](int from, int steps, int dir) {
      double len = 0.0;
      for (int s = 0; s < steps; ++s) {
        const auto a = ring[static_cast<std::size_t>(((from + s * dir) % n + n) % n)];
        const auto b = ring[static_cast<std::size_t>(((from + (s + 1) * dir) % n + n) % n)];
        len += g_.edgeLength(a, b);
      }
      return len;
    };
    // An arc is committed only if every step really is a graph edge:
    // outer-boundary rings are component orderings rather than strict edge
    // walks (on degenerate collinear graphs consecutive entries need not
    // be LDel edges), and rings of pinched faces can revisit nodes out of
    // adjacency order. Try the shorter direction first.
    auto tryArc = [&](int dir, int steps) {
      std::vector<graph::NodeId> arc;
      arc.reserve(static_cast<std::size_t>(steps));
      graph::NodeId prev = cur;
      for (int s = 1; s <= steps; ++s) {
        const auto v = ring[static_cast<std::size_t>(((ci + s * dir) % n + n) % n)];
        if (!g_.hasEdge(prev, v)) return false;
        arc.push_back(v);
        prev = v;
      }
      path.insert(path.end(), arc.begin(), arc.end());
      return true;
    };
    const int fwdSteps = (ti - ci + n) % n;
    const int bwdSteps = (ci - ti + n) % n;
    const bool fwdFirst = arcLength(ci, fwdSteps, 1) <= arcLength(ci, bwdSteps, -1);
    if (tryArc(fwdFirst ? 1 : -1, fwdFirst ? fwdSteps : bwdSteps)) return true;
    if (tryArc(fwdFirst ? -1 : 1, fwdFirst ? bwdSteps : fwdSteps)) return true;
  }
  return false;
}

bool HybridRouter::routeViaOverlay(std::vector<graph::NodeId>& path, graph::NodeId target,
                                   int* fallbacks) const {
  // Combined query through per-thread scratch: one solve for waypoints and
  // distance, no allocation in the incremental (visibility-label) mode.
  // The waypoint loop below must not re-enter the overlay (chewOrFallback
  // only runs Chew legs / A*), or the scratch would be clobbered mid-walk.
  thread_local OverlayQueryWorkspace overlayWs;
  thread_local OverlayRoute overlayRoute;
  overlay_->query(g_.position(path.back()), g_.position(target), overlayWs, overlayRoute);
  if (!overlayRoute.reachable) {
    return chewOrFallback(path, target, fallbacks);
  }
  for (graph::NodeId w : overlayRoute.waypoints) {
    if (path.back() == w) continue;
    if (!chewOrFallback(path, w, fallbacks)) return false;
  }
  return chewOrFallback(path, target, fallbacks);
}

bool HybridRouter::routeOutside(std::vector<graph::NodeId>& path, graph::NodeId target,
                                int* fallbacks) const {
  if (path.back() == target) return true;
  int blocked = -1;
  if (chew_.extend(path, target, &blocked)) return true;
  if (blocked >= 0 && overlayPlan_.sites != SiteMode::AllHoleNodes) {
    // §4.3: the hole node forwards the message to its neighboring
    // abstraction (hull / locally-convex-hull) node before consulting the
    // overlay.
    ringWalkToHullNode(path, blocked);
  }
  return routeViaOverlay(path, target, fallbacks);
}

bool HybridRouter::routeWithinBay(std::vector<graph::NodeId>& path, graph::NodeId target,
                                  const BayLocation& loc, int* fallbacks,
                                  int* bayExtremes) const {
  const graph::NodeId start = path.back();
  if (start == target) return true;
  int blocked = -1;
  if (chew_.extend(path, target, &blocked)) return true;  // visible pair

  const auto& a = abstractions_[static_cast<std::size_t>(loc.abstraction)];
  if (blocked < 0 || blocked != a.holeIndex) {
    // Blocked by something other than this bay's hole: give up on the bay
    // machinery for this pair.
    return chewOrFallback(path, target, fallbacks);
  }
  const auto& bay = a.bays[static_cast<std::size_t>(loc.bay)];

  // Full chain including the hull endpoints, in ring order.
  std::vector<graph::NodeId> full;
  full.reserve(bay.chain.size() + 2);
  full.push_back(bay.hullFrom);
  full.insert(full.end(), bay.chain.begin(), bay.chain.end());
  full.push_back(bay.hullTo);

  // Intersections S (closest to s) and T (closest to t) of the segment
  // with the bay's stretch of the hole boundary (§4.4).
  const geom::Vec2 ps = g_.position(start);
  const geom::Vec2 pt = g_.position(target);
  const geom::Vec2 dir = pt - ps;
  const double len2 = dir.norm2();
  double sParam = std::numeric_limits<double>::infinity();
  double tParam = -std::numeric_limits<double>::infinity();
  int sEdge = -1;
  int tEdge = -1;
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    const geom::Segment e{g_.position(full[i]), g_.position(full[i + 1])};
    if (!geom::segmentsIntersect({ps, pt}, e)) continue;
    const auto ip = geom::segmentIntersectionPoint({ps, pt}, e);
    if (!ip) continue;
    const double param = (*ip - ps).dot(dir) / len2;
    if (param < sParam) {
      sParam = param;
      sEdge = static_cast<int>(i);
    }
    if (param > tParam) {
      tParam = param;
      tEdge = static_cast<int>(i);
    }
  }
  if (sEdge < 0) return chewOrFallback(path, target, fallbacks);

  // P1 / Pt: dominating-set nodes with minimal chain distance to S / T.
  std::size_t flatBay = 0;
  for (int ai2 = 0; ai2 < loc.abstraction; ++ai2) {
    flatBay += abstractions_[static_cast<std::size_t>(ai2)].bays.size();
  }
  flatBay += static_cast<std::size_t>(loc.bay);
  const auto& ds = bayDS_[flatBay];
  auto nearestAnchor = [&](int edgeIdx) -> int {
    // Prefer a DS node; fall back to the chain node at the edge.
    int bestIdx = -1;
    int bestDist = std::numeric_limits<int>::max();
    for (graph::NodeId d : ds) {
      const int di = indexIn(full, d);
      if (di < 0) continue;
      const int distIdx = std::abs(di - edgeIdx);
      if (distIdx < bestDist) {
        bestDist = distIdx;
        bestIdx = di;
      }
    }
    if (bestIdx < 0) bestIdx = edgeIdx;
    return bestIdx;
  };
  const int p1Idx = nearestAnchor(sEdge);
  const int ptIdx = nearestAnchor(tEdge);

  // Extreme points: convex hull corners of the boundary stretch between
  // P1 and Pt, visited in chain order.
  const int lo = std::min(p1Idx, ptIdx);
  const int hi = std::max(p1Idx, ptIdx);
  std::vector<geom::Vec2> stretch;
  for (int i = lo; i <= hi; ++i) {
    stretch.push_back(g_.position(full[static_cast<std::size_t>(i)]));
  }
  std::vector<graph::NodeId> waypoints;
  waypoints.push_back(full[static_cast<std::size_t>(p1Idx)]);
  if (stretch.size() >= 3) {
    const auto hullIdx = geom::convexHullIndices(stretch);
    std::vector<char> onHull(stretch.size(), 0);
    for (int i : hullIdx) onHull[static_cast<std::size_t>(i)] = 1;
    if (p1Idx <= ptIdx) {
      for (int i = p1Idx + 1; i < ptIdx; ++i) {
        if (onHull[static_cast<std::size_t>(i - lo)]) {
          waypoints.push_back(full[static_cast<std::size_t>(i)]);
        }
      }
    } else {
      for (int i = p1Idx - 1; i > ptIdx; --i) {
        if (onHull[static_cast<std::size_t>(i - lo)]) {
          waypoints.push_back(full[static_cast<std::size_t>(i)]);
        }
      }
    }
  }
  waypoints.push_back(full[static_cast<std::size_t>(ptIdx)]);

  // Compress the waypoint sequence by visibility: from each kept waypoint
  // jump to the farthest later waypoint it can see, and stop at the first
  // waypoint that sees the target (the paper's E_t rule). This keeps the
  // extreme-point structure of §4.4 but skips dips of the boundary stretch
  // that the straight route can bypass (e.g. further gaps of a comb).
  const auto& vis = overlay_->visibility();
  std::vector<graph::NodeId> compressed;
  std::size_t pos = 0;
  compressed.push_back(waypoints[0]);
  while (!vis.visible(g_.position(waypoints[pos]), pt)) {
    std::size_t next = pos + 1;
    for (std::size_t j = waypoints.size(); j-- > pos + 1;) {
      if (vis.visible(g_.position(waypoints[pos]), g_.position(waypoints[j]))) {
        next = j;
        break;
      }
    }
    if (next >= waypoints.size()) break;
    compressed.push_back(waypoints[next]);
    pos = next;
  }
  waypoints = std::move(compressed);
  *bayExtremes += std::max(0, static_cast<int>(waypoints.size()) - 1);

  // The corridor walk stopped on the hole boundary; walk the ring to P1.
  const graph::NodeId x = path.back();
  const int xIdx = indexIn(full, x);
  if (xIdx >= 0) {
    const int stepDir = p1Idx >= xIdx ? 1 : -1;
    for (int i = xIdx + stepDir; i != p1Idx + stepDir; i += stepDir) {
      path.push_back(full[static_cast<std::size_t>(i)]);
    }
  } else if (!chewOrFallback(path, waypoints.front(), fallbacks)) {
    return false;
  }

  for (graph::NodeId w : waypoints) {
    if (path.back() == w) continue;
    if (!chewOrFallback(path, w, fallbacks)) return false;
  }
  return chewOrFallback(path, target, fallbacks);
}

graph::NodeId HybridRouter::bayEnd(const BayLocation& loc, graph::NodeId cur,
                                   graph::NodeId towards) const {
  const auto& bay = abstractions_[static_cast<std::size_t>(loc.abstraction)]
                        .bays[static_cast<std::size_t>(loc.bay)];
  const auto cost = [&](graph::NodeId end) {
    return geom::dist(g_.position(cur), g_.position(end)) +
           geom::dist(g_.position(end), g_.position(towards));
  };
  return cost(bay.hullFrom) <= cost(bay.hullTo) ? bay.hullFrom : bay.hullTo;
}

RouteResult HybridRouter::route(graph::NodeId source, graph::NodeId target) const {
  RouteResult r;
  r.path.push_back(source);
  if (source == target) {
    r.delivered = true;
    return r;
  }
  if (g_.hasEdge(source, target)) {  // direct neighbors: one ad hoc hop
    r.path.push_back(target);
    r.delivered = true;
    return r;
  }

  const auto locS = locate(g_.position(source));
  const auto locT = locate(g_.position(target));

  if (locS && locT) {
    r.protocolCase = locS->abstraction != locT->abstraction ? 3
                     : locS->bay != locT->bay               ? 4
                                                            : 5;
  } else {
    r.protocolCase = locS || locT ? 2 : 1;
  }
  bool ok = true;
  if (r.protocolCase == 5) {
    ok = routeWithinBay(r.path, target, *locS, &r.fallbacks, &r.bayExtremePoints);
  } else {
    // Escape the source's bay through its nearer hull end.
    if (locS) {
      ok = routeWithinBay(r.path, bayEnd(*locS, source, target), *locS, &r.fallbacks,
                          &r.bayExtremePoints);
    }
    // Route outside the hulls to the target, or to the nearer hull end of
    // the target's bay and then within that bay.
    if (ok) {
      const graph::NodeId goal = locT ? bayEnd(*locT, r.path.back(), target) : target;
      ok = routeOutside(r.path, goal, &r.fallbacks) &&
           (!locT || routeWithinBay(r.path, target, *locT, &r.fallbacks, &r.bayExtremePoints));
    }
  }
  // Last-resort fallback keeps the router total; counted for reporting.
  if (!ok) spliceAStar(r.path, target, &r.fallbacks);
  r.delivered = r.path.back() == target;
  return r;
}

}  // namespace hybrid::routing
