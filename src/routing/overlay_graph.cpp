#include "routing/overlay_graph.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

#include "delaunay/triangulation.hpp"
#include "graph/shortest_path.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace hybrid::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

#ifndef HYBRID_OBS_DISABLED
/// Registry handles resolved once; hot queries only touch the atomics.
struct QueryMetrics {
  obs::Counter& incremental;
  obs::Counter& rebuild;
  obs::Counter& direct;
  obs::Counter& visRun;
  obs::Counter& visPruned;
  obs::Counter& wsReuse;
  obs::Counter& wsGrow;
  obs::Histogram& hubMerge;

  static QueryMetrics& get() {
    auto& reg = obs::Registry::global();
    static QueryMetrics m{reg.counter("overlay.query.incremental"),
                          reg.counter("overlay.query.rebuild"),
                          reg.counter("overlay.query.direct"),
                          reg.counter("overlay.vis_tests.run"),
                          reg.counter("overlay.vis_tests.pruned"),
                          reg.counter("overlay.workspace.reuse_hits"),
                          reg.counter("overlay.workspace.grows"),
                          reg.histogram("overlay.query.hub_merge_len",
                                        {4, 16, 64, 256, 1024, 4096, 16384})};
    return m;
  }
};
#endif
}  // namespace

const char* abstractionModeName(AbstractionMode mode) {
  switch (mode) {
    case AbstractionMode::Hulls:
      return "hulls";
    case AbstractionMode::BBox:
      return "bbox";
    case AbstractionMode::Auto:
      break;
  }
  return "auto";
}

std::optional<AbstractionMode> parseAbstractionMode(std::string_view name) {
  if (name == "hulls") return AbstractionMode::Hulls;
  if (name == "bbox") return AbstractionMode::BBox;
  if (name == "auto") return AbstractionMode::Auto;
  return std::nullopt;
}

OverlayGraph::OverlayGraph(const graph::GeometricGraph& ldel,
                           const std::vector<std::vector<graph::NodeId>>& siteRings,
                           std::vector<geom::Polygon> obstacles, EdgeMode edgeMode,
                           bool ringBackbone)
    : vis_(std::move(obstacles)), edgeMode_(edgeMode) {
  obs::ScopedSpan buildSpan("overlay.build");
  ringBackbone_ = ringBackbone;
  std::map<graph::NodeId, int> local;
  for (const auto& ring : siteRings) {
    for (graph::NodeId v : ring) {
      if (local.contains(v)) continue;
      local[v] = static_cast<int>(sites_.size());
      sites_.push_back(v);
      sitePos_.push_back(ldel.position(v));
    }
  }
  for (const auto& ring : siteRings) {
    if (ring.size() < 2) continue;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      backboneEdges_.emplace_back(local.at(ring[i]),
                                  local.at(ring[(i + 1) % ring.size()]));
    }
  }
  buildSiteEdges();
  buildSitePairTable();
}

void OverlayGraph::buildSiteEdges() {
  obs::ScopedSpan span("site_edges");
  // Delaunay queries triangulate the sites together with s and t (see
  // buildQueryGraph) and read no prebuilt site graph.
  if (edgeMode_ != EdgeMode::Visibility) {
    siteAdj_.assign(sitePos_.size(), {});
    return;
  }
  siteAdj_ = geom::buildVisibilityAdjacency(sitePos_, vis_);
  if (!ringBackbone_) return;
  // Ring-arc backbones (bbox sites): the chord between consecutive sites
  // may cross the hole, so visibility missed it; the router walks the ring
  // for such legs, keeping the edge routable.
  for (const auto& [u, v] : backboneEdges_) {
    auto& au = siteAdj_[static_cast<std::size_t>(u)];
    if (std::find(au.begin(), au.end(), v) != au.end()) continue;
    au.push_back(v);
    siteAdj_[static_cast<std::size_t>(v)].push_back(u);
  }
}

void OverlayGraph::buildSitePairTable() {
  obs::ScopedSpan span("site_table");
  const std::size_t h = sitePos_.size();
  // Delaunay queries re-triangulate with the endpoints inserted, so the
  // static site graph cannot answer them; only visibility mode serves
  // from site-pair labels.
  if (edgeMode_ != EdgeMode::Visibility || h == 0) return;

  siteCsr_ = graph::buildCsr(siteAdj_, sitePos_);
  const unsigned threads = h >= 96 ? util::resolveThreads(0) : 1;
#ifndef HYBRID_OBS_DISABLED
  const auto t0 = std::chrono::steady_clock::now();
#endif
  labels_.build(siteCsr_, threads);
  HYBRID_OBS_STMT(if (obs::enabled()) {
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    auto& reg = obs::Registry::global();
    reg.counter("overlay.table.builds").add(1);
    reg.counter("overlay.table.dijkstras").add(h);
    reg.counter("overlay.table.relaxations").add(labels_.buildRelaxations());
    reg.counter("overlay.table.heap_pops").add(labels_.buildHeapPops());
    reg.gauge("overlay.table.sites").set(static_cast<double>(h));
    reg.gauge("overlay.labels.count").set(static_cast<double>(labels_.numEntries()));
    reg.gauge("overlay.labels.bytes").set(static_cast<double>(labels_.labelBytes()));
    reg.gauge("overlay.labels.max_label").set(static_cast<double>(labels_.maxLabelSize()));
    reg.gauge("overlay.labels.build_ms").set(ms);
  });
}

OverlayGraph::Query OverlayGraph::buildQueryGraph(geom::Vec2 from, geom::Vec2 to) const {
  Query q;
  // Reuse a site when the endpoint coincides with it (e.g. routing from a
  // hull node), so the triangulation never sees duplicate points.
  int fromSite = -1;
  int toSite = -1;
  for (int i = 0; i < static_cast<int>(sitePos_.size()); ++i) {
    if (sitePos_[static_cast<std::size_t>(i)] == from) fromSite = i;
    if (sitePos_[static_cast<std::size_t>(i)] == to) toSite = i;
  }

  std::vector<geom::Vec2> pts = sitePos_;
  q.fromIdx = fromSite >= 0 ? fromSite : static_cast<int>(pts.size());
  if (fromSite < 0) pts.push_back(from);
  q.toIdx = toSite >= 0 ? toSite : static_cast<int>(pts.size());
  if (toSite < 0) pts.push_back(to);

  q.g = graph::GeometricGraph(pts);
  const int ns = static_cast<int>(sitePos_.size());

  if (pts.size() < 3) {
    // Too few points to triangulate (and fewer than three sites, so no site
    // edges): link each temporary endpoint to every point it can see.
    for (const int endpoint : {q.fromIdx, q.toIdx}) {
      if (endpoint < ns) continue;  // endpoint is itself a site
      for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
        if (i == endpoint) continue;
        if (vis_.visible(pts[static_cast<std::size_t>(endpoint)],
                         pts[static_cast<std::size_t>(i)])) {
          q.g.addEdge(endpoint, i);
        }
      }
    }
    return q;
  }

  // Re-triangulate sites + endpoints and prune hole-crossing edges; keep
  // the (hole-free) backbone.
  const delaunay::DelaunayTriangulation dt(pts);
  for (const auto& [u, v] : dt.edges()) {
    if (vis_.visible(pts[static_cast<std::size_t>(u)], pts[static_cast<std::size_t>(v)])) {
      q.g.addEdge(u, v);
    }
  }
  // The backbone (consecutive abstraction nodes of one hole) is kept
  // unconditionally: a chord between adjacent hull corners cannot cross
  // its own hole's interior, and when boundary slivers make hulls
  // intersect, keeping the chord beats detouring the whole overlay (the
  // Chew leg slides around the sliver locally).
  for (const auto& [u, v] : backboneEdges_) q.g.addEdge(u, v);
  return q;
}

void OverlayGraph::queryRebuild(geom::Vec2 from, geom::Vec2 to, OverlayRoute& out) const {
  HYBRID_OBS_STMT(if (obs::enabled()) QueryMetrics::get().rebuild.add(1));
  const Query q = buildQueryGraph(from, to);
  const auto tree = graph::dijkstra(q.g, q.fromIdx, q.toIdx);
  out.distance = tree.dist[static_cast<std::size_t>(q.toIdx)];
  const auto path = tree.pathTo(q.toIdx);
  if (path.empty() && q.fromIdx != q.toIdx) return;  // unreachable
  out.reachable = true;
  for (graph::NodeId v : path) {
    if (v == q.fromIdx || v == q.toIdx) continue;
    if (v < static_cast<int>(sites_.size())) {
      out.waypoints.push_back(sites_[static_cast<std::size_t>(v)]);
    }
  }
}

void OverlayGraph::queryIncremental(geom::Vec2 from, geom::Vec2 to,
                                    OverlayQueryWorkspace& ws, OverlayRoute& out) const {
#ifndef HYBRID_OBS_DISABLED
  // Per-query tallies flush exactly once, whichever return path runs.
  ws.obsVisRun_ = 0;
  ws.obsVisPruned_ = 0;
  ws.obsHubMerge_ = 0;
  struct ObsFlush {
    const OverlayQueryWorkspace& ws;
    ~ObsFlush() {
      if (!obs::enabled()) return;
      auto& m = QueryMetrics::get();
      m.incremental.add(1);
      m.visRun.add(ws.obsVisRun_);
      m.visPruned.add(ws.obsVisPruned_);
      m.hubMerge.record(static_cast<double>(ws.obsHubMerge_));
    }
  } obsFlush{ws};
#endif
  const std::size_t h = sitePos_.size();
  // Endpoints that coincide with a site enter the overlay there at cost 0,
  // exactly as the rebuilt query graph reused the site node.
  int fromSite = -1;
  int toSite = -1;
  for (int i = 0; i < static_cast<int>(h); ++i) {
    if (sitePos_[static_cast<std::size_t>(i)] == from) fromSite = i;
    if (sitePos_[static_cast<std::size_t>(i)] == to) toSite = i;
  }

  int bestEntry = -1;
  int bestExit = -1;
  double best = kInf;

  if (fromSite >= 0 && toSite >= 0) {
    // Both endpoints are sites: the query graph is the precomputed site
    // graph itself (visibility adjacency covers every visible pair).
    best = sitePairDistance(fromSite, toSite);
    bestEntry = fromSite;
    bestExit = toSite;
  } else {
    // Direct edge: a temporary endpoint links to every visible point,
    // including the other endpoint. The rebuilt graph ran the visibility
    // test from each *temporary* endpoint in turn (site nodes never
    // initiated edges to temps), and visible() can be asymmetric when a
    // segment grazes a hole vertex — so replicate the exact orientation(s)
    // the old graph evaluated.
    const bool direct =
        (fromSite < 0 && vis_.visible(from, to)) || (toSite < 0 && vis_.visible(to, from));
    if (direct) best = geom::dist(from, to);

    // Visibility tests (endpoint-first orientation, matching the rebuilt
    // graph's edge tests) dominate the query cost, so they run lazily and
    // each verdict is cached for the query's lifetime.
    HYBRID_OBS_STMT(if (obs::enabled()) {
      auto& m = QueryMetrics::get();
      (ws.entryVis_.capacity() >= h ? m.wsReuse : m.wsGrow).add(1);
    });
    ws.entryVis_.assign(h, 0);
    ws.exitVis_.assign(h, 0);
    const auto entryVisible = [&](int i) {
      signed char& f = ws.entryVis_[static_cast<std::size_t>(i)];
      if (f == 0) {
        HYBRID_OBS_STMT(++ws.obsVisRun_);
        f = vis_.visible(from, sitePos_[static_cast<std::size_t>(i)]) ? 1 : -1;
      }
      return f > 0;
    };
    const auto exitVisible = [&](int j) {
      signed char& f = ws.exitVis_[static_cast<std::size_t>(j)];
      if (f == 0) {
        HYBRID_OBS_STMT(++ws.obsVisRun_);
        f = vis_.visible(to, sitePos_[static_cast<std::size_t>(j)]) ? 1 : -1;
      }
      return f > 0;
    };

    // Pruning bound: any site whose Euclidean lower bound
    //   d(from, s_i) + |s_i - to|   (entry)   /   |from - s_j| + d(s_j, to)  (exit)
    // strictly exceeds a known upper bound on the optimal cannot be part
    // of a strictly-better candidate (overlay legs are at least the
    // straight-line distance), so its visibility test is skipped. The
    // bound is kept separate from the scan's running `best` and the prune
    // is strict, so every candidate that could tie the optimum survives
    // and the pair scan selects exactly what the unpruned scan would.
    double bound = best;
    if (bound == kInf && h > 0) {
      // Direct segment blocked: seed a finite bound from the
      // nearest-by-lower-bound visible entry and exit joined by the labels.
      // The through-site lower bound |from - s| + |s - to| orders both
      // walks, so it is computed and sorted once.
      ws.seedLB_.resize(h);
      ws.seedOrder_.resize(h);
      for (int i = 0; i < static_cast<int>(h); ++i) {
        const geom::Vec2 s = sitePos_[static_cast<std::size_t>(i)];
        ws.seedLB_[static_cast<std::size_t>(i)] = geom::dist(from, s) + geom::dist(s, to);
        ws.seedOrder_[static_cast<std::size_t>(i)] = i;
      }
      std::sort(ws.seedOrder_.begin(), ws.seedOrder_.end(), [&](int a, int b) {
        return ws.seedLB_[static_cast<std::size_t>(a)] <
               ws.seedLB_[static_cast<std::size_t>(b)];
      });
      // A handful of seeds per side tightens the bound considerably over a
      // single pair (the nearest visible entry and exit are often on the
      // same side of the blocking hole, forcing a long overlay detour).
      constexpr int kSeeds = 3;
      int seedEntries[kSeeds];
      int seedExits[kSeeds];
      int numEntries = 0;
      int numExits = 0;
      if (fromSite >= 0) {
        seedEntries[numEntries++] = fromSite;
      } else {
        for (const int i : ws.seedOrder_) {
          if (!entryVisible(i)) continue;
          seedEntries[numEntries++] = i;
          if (numEntries == kSeeds) break;
        }
      }
      if (toSite >= 0) {
        seedExits[numExits++] = toSite;
      } else if (numEntries > 0) {
        for (const int j : ws.seedOrder_) {
          if (!exitVisible(j)) continue;
          seedExits[numExits++] = j;
          if (numExits == kSeeds) break;
        }
      }
      double seedDist[kSeeds];
      for (int a = 0; a < numEntries; ++a) {
        const int i = seedEntries[a];
        const double entryLeg =
            i == fromSite ? 0.0 : geom::dist(from, sitePos_[static_cast<std::size_t>(i)]);
        // Batched label merge: stamp i's label into the hub buckets once
        // and answer every exit from them, instead of one full two-pointer
        // merge per (i, j) pair. Values are identical to
        // sitePairDistance() per pair.
        labels_.distanceMany(i, {seedExits, static_cast<std::size_t>(numExits)},
                             ws.hubMergeWs_, {seedDist, static_cast<std::size_t>(numExits)});
        for (int b = 0; b < numExits; ++b) {
          const int j = seedExits[b];
          const double exitLeg =
              j == toSite ? 0.0 : geom::dist(sitePos_[static_cast<std::size_t>(j)], to);
          bound = std::min(bound, entryLeg + seedDist[b] + exitLeg);
        }
      }
    }

    // Entry/exit legs to the visible sites (cost 0 at a coinciding site).
    ws.entrySites_.clear();
    ws.exitSites_.clear();
    ws.entryDist_.assign(h, kInf);
    ws.exitDist_.assign(h, kInf);
    if (fromSite >= 0) {
      ws.entryDist_[static_cast<std::size_t>(fromSite)] = 0.0;
      ws.entrySites_.push_back(fromSite);
    } else {
      for (int i = 0; i < static_cast<int>(h); ++i) {
        const geom::Vec2 s = sitePos_[static_cast<std::size_t>(i)];
        const double leg = geom::dist(from, s);
        if (leg + geom::dist(s, to) > bound) {
          HYBRID_OBS_STMT(++ws.obsVisPruned_);
          continue;
        }
        if (!entryVisible(i)) continue;
        ws.entryDist_[static_cast<std::size_t>(i)] = leg;
        ws.entrySites_.push_back(i);
      }
    }
    if (toSite >= 0) {
      ws.exitDist_[static_cast<std::size_t>(toSite)] = 0.0;
      ws.exitSites_.push_back(toSite);
    } else {
      for (int j = 0; j < static_cast<int>(h); ++j) {
        const geom::Vec2 s = sitePos_[static_cast<std::size_t>(j)];
        const double leg = geom::dist(s, to);
        if (geom::dist(from, s) + leg > bound) {
          HYBRID_OBS_STMT(++ws.obsVisPruned_);
          continue;
        }
        if (!exitVisible(j)) continue;
        ws.exitDist_[static_cast<std::size_t>(j)] = leg;
        ws.exitSites_.push_back(j);
      }
    }

    // Best entry/exit-site combination over the site-pair labels, by a
    // hub-bucket scan instead of |entry| x |exit| label merges: pass 1
    // buckets the entry side per hub (min over entry sites i of
    // d(from,i) + d(i,w)), pass 2 completes each exit label against the
    // buckets — O(sum of touched label sizes) total. Buckets are
    // generation-stamped so queries never pay an O(h) clear.
    if (ws.hubStamp_.size() < h) {
      ws.hubVal_.resize(h);
      ws.hubEntry_.resize(h);
      ws.hubStamp_.resize(h, 0);
    }
    ++ws.hubGen_;
    if (ws.hubGen_ == 0) {  // stamp wrap-around: re-zero and restart
      std::fill(ws.hubStamp_.begin(), ws.hubStamp_.end(), 0);
      ws.hubGen_ = 1;
    }
    for (const int i : ws.entrySites_) {
      const double di = ws.entryDist_[static_cast<std::size_t>(i)];
      const auto li = labels_.label(i);
      HYBRID_OBS_STMT(ws.obsHubMerge_ += li.size());
      for (const auto& e : li) {
        const double cand = di + e.dist;
        const auto w = static_cast<std::size_t>(e.hub);
        if (ws.hubStamp_[w] != ws.hubGen_ || cand < ws.hubVal_[w]) {
          ws.hubStamp_[w] = ws.hubGen_;
          ws.hubVal_[w] = cand;
          ws.hubEntry_[w] = i;
        }
      }
    }
    for (const int j : ws.exitSites_) {
      const double dj = ws.exitDist_[static_cast<std::size_t>(j)];
      const auto lj = labels_.label(j);
      HYBRID_OBS_STMT(ws.obsHubMerge_ += lj.size());
      for (const auto& e : lj) {
        const auto w = static_cast<std::size_t>(e.hub);
        if (ws.hubStamp_[w] != ws.hubGen_) continue;
        const double cand = ws.hubVal_[w] + e.dist + dj;
        if (cand < best) {
          best = cand;
          bestEntry = ws.hubEntry_[w];
          bestExit = j;
        }
      }
    }
  }

  if (best == kInf) return;  // unreachable
  out.reachable = true;
  out.distance = best;
  if (bestEntry < 0) {  // direct visibility: no intermediate sites
    HYBRID_OBS_STMT(if (obs::enabled()) QueryMetrics::get().direct.add(1));
    return;
  }

  ws.pathScratch_.clear();
  if (!labels_.path(bestEntry, bestExit, ws.pathScratch_)) {
    // Labels say reachable but the pred walk failed: should not happen.
    out.reachable = false;
    out.distance = kInf;
    return;
  }
  for (const int v : ws.pathScratch_) {
    if (v == fromSite || v == toSite) continue;  // endpoints are not waypoints
    out.waypoints.push_back(sites_[static_cast<std::size_t>(v)]);
  }
}

void OverlayGraph::query(geom::Vec2 from, geom::Vec2 to, OverlayQueryWorkspace& ws,
                         OverlayRoute& out) const {
  out.reachable = false;
  out.distance = kInf;
  out.waypoints.clear();
  if (from == to) {
    out.reachable = true;
    out.distance = 0.0;
    return;
  }
  if (edgeMode_ == EdgeMode::Visibility) {
    queryIncremental(from, to, ws, out);
  } else {
    queryRebuild(from, to, out);
  }
}

OverlayRoute OverlayGraph::waypointsWithDistance(geom::Vec2 from, geom::Vec2 to) const {
  thread_local OverlayQueryWorkspace ws;
  OverlayRoute out;
  query(from, to, ws, out);
  return out;
}

}  // namespace hybrid::routing
