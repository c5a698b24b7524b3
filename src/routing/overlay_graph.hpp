#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "geom/visibility.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "routing/hub_labels.hpp"

namespace hybrid::routing {

/// Which nodes form the abstraction overlay.
enum class SiteMode {
  HullNodes,          ///< Convex hull nodes of each hole (paper section 4).
  AllHoleNodes,       ///< Every hole boundary node (paper section 3).
  LocallyConvexHull,  ///< Locally convex hulls (Def. 4.1): the intermediate
                      ///< abstraction of section 4.1 — O(A) nodes per hole.
};

/// How overlay sites are connected.
enum class EdgeMode {
  Visibility,  ///< Full visibility graph: Theta(h^2) edges, 17.7-competitive.
  Delaunay,    ///< Delaunay of the sites: O(h) edges, 35.37-competitive.
};

/// Which per-hole abstraction feeds the overlay.
enum class AbstractionMode {
  Hulls,  ///< Convex hulls (the source paper); competitive only when the
          ///< hulls are pairwise disjoint, A* fallback otherwise.
  BBox,   ///< Axis-aligned bounding boxes merged to disjointness
          ///< (Castenow-Kolb-Scheideler, arXiv:1810.05453): O(1) sites per
          ///< hole, stays competitive when hulls interlock.
  Auto,   ///< Hulls when all hulls are disjoint, BBox otherwise.
};

const char* abstractionModeName(AbstractionMode mode);
/// Parses abstractionModeName() spelling ("hulls" | "bbox" | "auto");
/// nullopt for anything else.
std::optional<AbstractionMode> parseAbstractionMode(std::string_view name);

/// Combined answer of one overlay query: the waypoints *and* the overlay
/// path length from a single solve. Callers that reuse the struct keep the
/// waypoint vector's capacity across queries.
struct OverlayRoute {
  bool reachable = false;
  double distance = std::numeric_limits<double>::infinity();
  std::vector<graph::NodeId> waypoints;  ///< Intermediate sites, endpoint-free.
};

/// Per-thread scratch state for OverlayGraph::query(). Queries through a
/// workspace perform zero steady-state heap allocations (visibility mode);
/// one workspace must not be shared between concurrent queries.
/// Cache-line-aligned so per-thread workspaces never false-share.
class alignas(64) OverlayQueryWorkspace {
 public:
  OverlayQueryWorkspace() = default;

 private:
  friend class OverlayGraph;
  std::vector<double> entryDist_;  ///< d(from, site i); +inf when not visible.
  std::vector<double> exitDist_;   ///< d(site j, to); +inf when not visible.
  std::vector<int> entrySites_;    ///< Site indices with finite entry distance.
  std::vector<int> exitSites_;     ///< Site indices with finite exit distance.
  std::vector<int> pathScratch_;   ///< Local-index site path being rebuilt.
  /// Cached visibility verdicts this query: 0 unknown, 1 visible, -1 blocked.
  std::vector<signed char> entryVis_;
  std::vector<signed char> exitVis_;
  std::vector<double> seedLB_;  ///< Per-site Euclidean lower bounds (seed phase).
  std::vector<int> seedOrder_;  ///< Site indices sorted by seedLB_.
  /// Hub-bucket scan scratch: per-hub best entry-side value, generation
  /// stamped so a query never pays an O(h) clear.
  std::vector<double> hubVal_;         ///< min over entry sites of d(s,i)+d(i,w).
  std::vector<int> hubEntry_;          ///< Entry site realizing hubVal_.
  std::vector<std::uint64_t> hubStamp_;
  std::uint64_t hubGen_ = 0;
  /// Batched seed-bound scratch (HubLabelOracle::distanceMany).
  HubLabelOracle::MergeWorkspace hubMergeWs_;
  /// Per-query observability tallies, flushed into the global registry at
  /// the end of each query (obs::enabled() only; never affect results).
  std::uint64_t obsVisRun_ = 0;     ///< Visibility tests actually evaluated.
  std::uint64_t obsVisPruned_ = 0;  ///< Sites skipped by the Euclidean bound.
  std::uint64_t obsHubMerge_ = 0;   ///< Label entries scanned by the hub merge.
};

/// The long-range overlay used to plan around radio holes. Sites are hole
/// abstraction nodes; a waypoint query inserts the source and target and
/// returns the intermediate sites of a shortest overlay path.
///
/// Serving engine: visibility-mode overlays build hub labels over the CSR
/// site graph at construction (one rank-pruned Dijkstra per site, run in
/// parallel), so a query only connects the two endpoints to their visible
/// sites and minimizes d(s, i) + d(i, j) + d(j, t) over entry/exit-site
/// pairs with one hub-bucket scan — no graph rebuild, no per-query
/// Dijkstra, no allocation. The labels have no site ceiling; the dense
/// h x h table the label checks compare against is
/// testkit::referenceSiteTable. A Delaunay overlay keeps only its sites,
/// backbone and obstacles: each query triangulates the sites together with
/// s and t (inserting them changes the edge set), so a site graph of its
/// own would go unread. Both modes answer waypoints and distance from one
/// solve. All query methods are const and safe to call concurrently.
class OverlayGraph {
 public:
  /// `siteRings` lists the abstraction node rings (hull, locally convex
  /// hull or boundary nodes, or bounding-box sites; ccw); consecutive ring
  /// members form the backbone. Visibility is evaluated against the
  /// radio-hole polygons `obstacles`. `ringBackbone` declares the rings to
  /// be sparse subsets of the hole boundary connected by ring arcs (bbox
  /// sites): backbone edges are then force-included in the site graph even
  /// when the straight chord crosses the hole, because the router walks the
  /// hole ring between consecutive sites instead of routing the chord.
  OverlayGraph(const graph::GeometricGraph& ldel,
               const std::vector<std::vector<graph::NodeId>>& siteRings,
               std::vector<geom::Polygon> obstacles, EdgeMode edgeMode,
               bool ringBackbone = false);

  /// One combined solve into caller-owned scratch + result storage: the
  /// allocation-free hot path of the serving engine. `out.waypoints` is
  /// cleared and refilled (capacity reused).
  void query(geom::Vec2 from, geom::Vec2 to, OverlayQueryWorkspace& ws,
             OverlayRoute& out) const;

  /// Convenience wrapper over query() using a thread-local workspace.
  OverlayRoute waypointsWithDistance(geom::Vec2 from, geom::Vec2 to) const;

  const std::vector<graph::NodeId>& sites() const { return sites_; }
  const geom::VisibilityContext& visibility() const { return vis_; }

  // --- Introspection for parity tests and old-path bench replicas. ---
  const std::vector<geom::Vec2>& sitePositions() const { return sitePos_; }
  const std::vector<std::vector<int>>& siteAdjacency() const { return siteAdj_; }
  const std::vector<std::pair<int, int>>& backboneEdges() const { return backboneEdges_; }
  EdgeMode edgeMode() const { return edgeMode_; }
  /// True when queries are answered from the precomputed hub labels
  /// (every visibility overlay); Delaunay overlays rebuild per query.
  bool servesIncrementally() const { return edgeMode_ == EdgeMode::Visibility; }
  /// The site-pair label oracle; built for every visibility overlay.
  const HubLabelOracle& hubLabels() const { return labels_; }
  /// Shortest site-pair distance (+inf when disconnected); only valid when
  /// servesIncrementally().
  double sitePairDistance(int i, int j) const { return labels_.distance(i, j); }

 private:
  struct Query {
    graph::GeometricGraph g;  ///< sites + possibly from/to appended
    int fromIdx = -1;
    int toIdx = -1;
  };
  Query buildQueryGraph(geom::Vec2 from, geom::Vec2 to) const;
  void buildSiteEdges();
  void buildSitePairTable();
  void queryIncremental(geom::Vec2 from, geom::Vec2 to, OverlayQueryWorkspace& ws,
                        OverlayRoute& out) const;
  void queryRebuild(geom::Vec2 from, geom::Vec2 to, OverlayRoute& out) const;

  std::vector<graph::NodeId> sites_;
  std::vector<geom::Vec2> sitePos_;
  geom::VisibilityContext vis_;
  EdgeMode edgeMode_;
  /// Site-to-site adjacency of a visibility overlay; h empty lists for a
  /// Delaunay overlay, whose queries triangulate the sites with s and t.
  std::vector<std::vector<int>> siteAdj_;
  /// Ring/hull consecutive edges that are always present.
  std::vector<std::pair<int, int>> backboneEdges_;
  /// Backbone edges are ring arcs of a sparse site subset (bbox mode):
  /// include them in the site graph even when the chord is hole-blocked.
  bool ringBackbone_ = false;

  // Serving engine state (visibility mode).
  graph::CsrAdjacency siteCsr_;  ///< Flat site graph (visibility edges).
  HubLabelOracle labels_;        ///< Site-pair distances and paths.
};

}  // namespace hybrid::routing
