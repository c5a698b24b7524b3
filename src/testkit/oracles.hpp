#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/hybrid_network.hpp"
#include "graph/csr.hpp"
#include "routing/overlay_graph.hpp"
#include "routing/router.hpp"
#include "scenario/generator.hpp"

namespace hybrid::testkit {

/// Deliberate defects the harness can plant to prove the pipeline catches,
/// shrinks and records real bugs (fuzz_router --inject-bug, testkit_test).
enum class InjectedBug {
  None,
  DropOverlayWaypoint,     ///< Overlay answers lose their last waypoint.
  InflateOverlayDistance,  ///< Overlay distances come back 1% long.
  SwapDeliveryOrder,       ///< Threaded sim delivery order off by one swap.
  DropLabelHub,            ///< Hub-label slab loses one non-self entry.
  WrongNextHop,            ///< Per-node label forwards one entry to itself.
  DropBBoxCorner,          ///< Bbox site selection loses one corner site.
};

const char* bugName(InjectedBug bug);
/// Parses bugName() spelling; InjectedBug::None for "none" or unknown.
InjectedBug parseInjectedBug(std::string_view name);

/// Which serving engine the batch-serving oracles exercise
/// (fuzz_router --router): the centralized hybrid router, or the stateless
/// per-node label forwarder. stateless_parity always cross-checks both.
enum class RouterKind {
  Centralized,
  Stateless,
};

/// Parses a router kind's spelling ("centralized" | "stateless"); nullopt
/// for anything else.
std::optional<RouterKind> parseRouterKind(std::string_view name);

/// Verdict of one oracle on one case. `skipped` marks an oracle that chose
/// not to run (e.g. the ARQ differential on oversized instances); skips are
/// counted separately so a summary showing 0 runs of an oracle is loud.
struct OracleResult {
  bool ok = true;
  bool skipped = false;
  std::string failure;
};

/// Everything the oracles share about one scenario: the built pipeline
/// (HybridNetwork), a seeded set of query pairs, and the thread count the
/// parallel paths are exercised at. Building this is the expensive step;
/// oracles only read it. Not copyable: the router holds references into the
/// network.
class CaseContext {
 public:
  /// `seed` drives the query pairs (deterministically); `threads` is what
  /// routeBatch/simulator parallel paths run at (their results must be
  /// thread-count-invariant — that invariance is itself under test).
  /// `router` selects the serving engine of the batch-serving oracles;
  /// `abstraction` selects the per-hole abstraction those oracles build
  /// routers with (bbox_parity always forces BBox regardless).
  CaseContext(scenario::Scenario sc, std::uint64_t seed, int threads = 2,
              InjectedBug bug = InjectedBug::None,
              RouterKind router = RouterKind::Centralized,
              routing::AbstractionMode abstraction = routing::AbstractionMode::Hulls);
  CaseContext(const CaseContext&) = delete;
  CaseContext& operator=(const CaseContext&) = delete;

  const scenario::Scenario& scenario() const { return sc_; }
  const core::HybridNetwork& net() const { return net_; }
  const std::vector<routing::RoutePair>& pairs() const { return pairs_; }
  std::uint64_t seed() const { return seed_; }
  int threads() const { return threads_; }
  InjectedBug bug() const { return bug_; }
  RouterKind routerKind() const { return router_; }
  routing::AbstractionMode abstractionMode() const { return abstraction_; }

 private:
  scenario::Scenario sc_;
  std::uint64_t seed_;
  int threads_;
  InjectedBug bug_;
  RouterKind router_ = RouterKind::Centralized;
  routing::AbstractionMode abstraction_ = routing::AbstractionMode::Hulls;
  core::HybridNetwork net_;
  std::vector<routing::RoutePair> pairs_;
};

/// A differential oracle or paper-invariant checker. Pure function of the
/// context: running it twice (or at another thread count) must return the
/// same verdict.
struct Oracle {
  const char* name;
  OracleResult (*check)(const CaseContext&);
};

/// The registry, in fixed order:
///  - ldel_invariants:   byte-identity with referenceLocalizedDelaunay
///                       (UDG and LDel adjacency order, triangles, Gabriel
///                       edges, removals), LDel planarity, edges within
///                       radius, connectivity, Euler's formula on the
///                       hull-augmented faces, 1.998-spanner samples vs
///                       graph::dijkstra
///  - hull_invariants:   hull convexity and ring containment; an
///                       intersection that convexHullsDisjoint() reports
///                       has a witness pair under convexPolygonsIntersect
///  - overlay_parity:    incremental/current overlay query vs brute-force
///                       rebuild + graph::dijkstra ground truth
///  - route_batch_parity: routeBatch at k threads vs the serial loop
///  - competitive_bound: stretch <= c when hulls are disjoint; delivery +
///                       edge-validity always (incl. the unsupported
///                       intersecting-hulls case)
///  - metamorphic_paths: symmetry + triangle inequality of d(s,t), route
///                       length >= d(s,t)
///  - arq_vs_faultfree:  LDel construction over lossy ARQ transport vs the
///                       fault-free run
///  - sim_delivery_parity: simulator runs, fault-free and lossy under ARQ,
///                       at 1, k and 2k threads: byte-identical traces and
///                       stats, every trace in (round, recipient, sender)
///                       order
///  - label_parity:      the overlay's hub labels: byte-identical rebuilds
///                       at other thread counts, every site-pair distance
///                       vs referenceSiteTable, sampled label paths are
///                       real site-graph paths realizing their distance
///  - stateless_parity:  per-node label hop walk vs the centralized label
///                       path: same delivery verdict, real graph edges,
///                       identical length; labels byte-identical across
///                       thread counts; routeBatch bit-identical to serial
///  - bbox_parity:       bounding-box abstraction invariants (disjoint
///                       merged boxes, <= 8 ring sites per hole) and
///                       BBox-mode routing: valid obstacle-avoiding routes,
///                       the scaled competitive bound on intersecting-hull
///                       cases competitive_bound skips, and routeBatch
///                       bit-identical serial vs threaded
///  - churn_serving:     serve::RouteService under a seeded fault-injected
///                       churn trace with a concurrent reader: every
///                       published epoch (Reused, Incremental or Full)
///                       serves answers bit-identical to a from-scratch
///                       build of that epoch's topology at 1/k/2k threads
const std::vector<Oracle>& oracles();

/// nullptr when unknown.
const Oracle* findOracle(std::string_view name);

/// Brute-force overlay ground truth: rebuilds the query graph (sites +
/// endpoints, visibility- or Delaunay-edged exactly as the serving engine
/// defines it) from the overlay's public state and runs graph::dijkstra.
/// This is the serving path from before the incremental engine (Delaunay
/// overlays still answer this way); the overlay_parity oracle and the
/// OverlayParity tests pin the incremental engine against it.
routing::OverlayRoute referenceOverlayQuery(const routing::OverlayGraph& overlay,
                                            geom::Vec2 from, geom::Vec2 to);

/// LDel^2 ground truth: the construction as it was before its kernels were
/// replaced (unordered_map hash grid, a per-node BFS over an n-sized array,
/// the exact-only diametral test, up to three circumcircle tests per
/// candidate), with the large-coordinate Gabriel slack fix. The
/// ldel_invariants oracle requires delaunay::buildLocalizedDelaunay to
/// match it byte for byte: adjacency order, triangles, Gabriel edges and
/// removals.
delaunay::LocalizedDelaunay referenceLocalizedDelaunay(const std::vector<geom::Vec2>& points,
                                                       const delaunay::LDelOptions& opts = {});

/// Dense site-pair table: all-pairs shortest distances and predecessors of
/// a site graph in flat h x h slabs (row = source site), 12 bytes a pair.
struct SiteTable {
  std::size_t h = 0;
  std::vector<double> dist;        ///< dist[i * h + j]; +inf when disconnected.
  std::vector<std::int32_t> pred;  ///< j's parent toward i; -1 at i or unreached.

  double distance(int i, int j) const {
    return dist[static_cast<std::size_t>(i) * h + static_cast<std::size_t>(j)];
  }
  std::size_t bytes() const {
    return dist.size() * sizeof(double) + pred.size() * sizeof(std::int32_t);
  }
};

/// Site-pair ground truth: one Dijkstra per site of `csr` into a SiteTable,
/// rows filled in parallel on `threads` workers (every thread count gives
/// the same table). label_parity, OverlayParity and e19 compare the hub
/// labels against it.
SiteTable referenceSiteTable(const graph::CsrAdjacency& csr, unsigned threads);

}  // namespace hybrid::testkit
