#pragma once

#include <memory>
#include <optional>

#include "abstraction/dominating_set.hpp"
#include "abstraction/hole_abstraction.hpp"
#include "routing/chew.hpp"
#include "routing/overlay_graph.hpp"
#include "routing/router.hpp"

namespace hybrid::routing {

/// Configuration of the hole-abstraction routing protocol.
struct HybridOptions {
  SiteMode sites = SiteMode::HullNodes;   ///< §4 (hulls) or §3 (all hole nodes).
  EdgeMode edges = EdgeMode::Delaunay;    ///< Overlay edges: O(h) vs Theta(h^2).
  /// Per-hole abstraction feeding the overlay: convex hulls (the source
  /// paper, A* fallback on intersecting hulls), bounding boxes
  /// (arXiv:1810.05453, competitive on interlocking holes), or Auto
  /// (hulls when disjoint, bbox otherwise).
  AbstractionMode abstraction = AbstractionMode::Hulls;
};

/// Everything an overlay build consumes, captured so serving epochs can
/// share slabs: two routers whose plans compare equal would build
/// byte-identical overlays (the build is deterministic at any thread
/// count), so the newer router may adopt the older one's overlay — site
/// graph and hub-label slab included — instead of rebuilding it. Site
/// rings are kept in build order because the backbone edge set depends on
/// ring traversal order, and ring node *positions* are captured separately
/// because site ids alone do not pin the geometry when interior nodes churn
/// between epochs.
struct OverlayPlan {
  bool bbox = false;  ///< Bounding-box sites with a ring-walkable backbone.
  SiteMode sites = SiteMode::HullNodes;
  EdgeMode edges = EdgeMode::Delaunay;
  std::vector<std::vector<graph::NodeId>> rings;      ///< Site rings, build order.
  std::vector<geom::Vec2> ringPositions;              ///< Flattened ring positions.
  std::vector<std::vector<geom::Vec2>> holePolygons;  ///< Visibility obstacles.

  bool operator==(const OverlayPlan&) const = default;
};

/// The paper's routing protocol: Chew-style corridor routing toward the
/// target; on hitting a radio hole, hand off to the hole-abstraction
/// overlay (visibility graph or overlay Delaunay graph of the abstraction
/// nodes) and route Chew legs between consecutive waypoints. Sources or
/// targets inside a convex hull are handled with the bay-area algorithm of
/// section 4.4 (dominating set + extreme points).
///
/// Delivery is guaranteed: if any leg fails (numerics, protocol gaps), the
/// router splices in a shortest-path fallback and counts it in
/// RouteResult::fallbacks so experiments can report protocol coverage.
class HybridRouter : public Router {
 public:
  /// `overlayDonor` (optional) is a router from a previous serving epoch:
  /// when its OverlayPlan compares equal to this build's plan, the donor's
  /// overlay slab is adopted (shared, immutable) instead of being rebuilt
  /// — the epoch-snapshot fast path of serve::RouteService. The donor is
  /// only read during construction and need not outlive the router.
  HybridRouter(const graph::GeometricGraph& ldel, const holes::HoleAnalysis& analysis,
               const std::vector<abstraction::HoleAbstraction>& abstractions,
               const PlanarSubdivision& sub, HybridOptions options = {},
               const HybridRouter* overlayDonor = nullptr);

  /// The §4.3 cases take one path: a source inside a bay escapes it
  /// through the bay's nearer hull end (§4.4); the route then runs outside
  /// the hulls to the target, or to the nearer hull end of the target's bay
  /// and on within that bay. Source and target in one bay (case 5) route
  /// within it. An A* splice finishes any route the protocol cannot.
  RouteResult route(graph::NodeId source, graph::NodeId target) const override;
  std::string name() const override;

  const OverlayGraph& overlay() const { return *overlay_; }
  /// Shared ownership of the overlay slab, for snapshot plumbing: a later
  /// epoch's router (or a retiring snapshot's reader) keeps the slab alive
  /// for exactly as long as it is referenced.
  std::shared_ptr<const OverlayGraph> overlayPtr() const { return overlay_; }
  /// True when this router adopted its donor's overlay instead of building.
  bool adoptedDonorOverlay() const { return adoptedOverlay_; }

  /// Computes the overlay build inputs for (ldel, analysis, abstractions,
  /// options) without building anything expensive; the constructor builds
  /// the overlay from exactly this plan, so plan equality implies build
  /// equality. This is the one place that decides which rings feed the
  /// overlay.
  static OverlayPlan planOverlay(const graph::GeometricGraph& ldel,
                                 const holes::HoleAnalysis& analysis,
                                 const std::vector<abstraction::HoleAbstraction>& abstractions,
                                 const HybridOptions& options);
  /// True when the overlay was built from bounding-box sites (explicit
  /// BBox mode, or Auto that detected intersecting hulls).
  bool usesBBox() const { return overlayPlan_.bbox; }
  /// Dominating sets per bay, flattened in (abstraction, bay) order.
  const std::vector<std::vector<graph::NodeId>>& bayDominatingSets() const {
    return bayDS_;
  }

  /// Location of a point relative to the hole abstraction.
  struct BayLocation {
    int abstraction = -1;  ///< Index into the abstraction list.
    int bay = -1;          ///< Bay index within the abstraction.
  };
  /// The bay containing `p`, if p lies inside some hole's convex hull.
  std::optional<BayLocation> locate(geom::Vec2 p) const;

 private:
  // Routing helpers; each extends `path` (whose back() is the current
  // node) and returns true on arrival at `target`.
  bool chewOrFallback(std::vector<graph::NodeId>& path, graph::NodeId target,
                      int* fallbacks) const;
  /// Appends an A* path to `target` and counts it as a fallback, in
  /// `*fallbacks` and in overlay.abstraction.fallbacks; false when no
  /// path exists.
  bool spliceAStar(std::vector<graph::NodeId>& path, graph::NodeId target,
                   int* fallbacks) const;
  bool routeOutside(std::vector<graph::NodeId>& path, graph::NodeId target,
                    int* fallbacks) const;
  bool routeViaOverlay(std::vector<graph::NodeId>& path, graph::NodeId target,
                       int* fallbacks) const;
  bool routeWithinBay(std::vector<graph::NodeId>& path, graph::NodeId target,
                      const BayLocation& loc, int* fallbacks, int* bayExtremes) const;
  /// §4.4: the hull end of `loc`'s bay by which a route from `cur` to
  /// `towards` leaves or enters the bay — the end with the smaller
  /// |cur, end| + |end, towards|, ties going to hullFrom.
  graph::NodeId bayEnd(const BayLocation& loc, graph::NodeId cur,
                       graph::NodeId towards) const;
  void ringWalkToHullNode(std::vector<graph::NodeId>& path, int holeIdx) const;
  /// Bbox mode: when the current node and `target` lie on a common hole
  /// ring, appends the Euclidean-shorter ring arc to `target` and returns
  /// true. Covers overlay legs between consecutive box sites whose chord
  /// crosses the hole (the box paper's perimeter routing).
  bool ringWalkBetween(std::vector<graph::NodeId>& path, graph::NodeId target) const;
  /// Bbox mode: the box paper's route-around-the-box step. When a Chew
  /// leg is blocked by hole `holeIdx` (current node on its ring), walks
  /// the ring to the boundary node nearest the target so the leg can
  /// resume. False when the current node is off-ring or already nearest.
  bool ringWalkTowards(std::vector<graph::NodeId>& path, int holeIdx,
                       graph::NodeId target) const;

  const graph::GeometricGraph& g_;
  const holes::HoleAnalysis& analysis_;
  const std::vector<abstraction::HoleAbstraction>& abstractions_;
  ChewRouter chew_;
  std::shared_ptr<const OverlayGraph> overlay_;
  OverlayPlan overlayPlan_;
  bool adoptedOverlay_ = false;

  std::vector<std::vector<graph::NodeId>> bayDS_;
  std::vector<std::vector<geom::Polygon>> bayPolys_;  ///< Per abstraction.
  std::vector<char> isHullNode_;
  /// Maps a hole index (analysis order) to its abstraction index.
  std::vector<int> holeToAbstraction_;
};

}  // namespace hybrid::routing
