#include "testkit/oracles.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "abstraction/bbox_overlay.hpp"
#include "delaunay/triangulation.hpp"
#include "graph/csr.hpp"
#include "graph/shortest_path.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/reliable.hpp"
#include "routing/hub_labels.hpp"
#include "routing/node_labels.hpp"
#include "routing/stateless_router.hpp"
#include "scenario/churn.hpp"
#include "serve/route_service.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "testkit/rng.hpp"

namespace hybrid::testkit {

namespace {

constexpr double kEps = 1e-9;
/// Distance comparisons between the engine and the rebuilt ground truth:
/// equal-length paths may group FP additions differently.
constexpr double kDistEps = 1e-6;

OracleResult failResult(const std::string& message) {
  OracleResult r;
  r.ok = false;
  r.failure = message;
  return r;
}

OracleResult skipResult() {
  OracleResult r;
  r.skipped = true;
  return r;
}

bool closeEnough(double a, double b, double eps) {
  if (std::isinf(a) || std::isinf(b)) return std::isinf(a) && std::isinf(b);
  return std::abs(a - b) <= eps * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

/// Euclidean length of from -> waypoints -> to in the LDel embedding.
double polylineLength(const core::HybridNetwork& net, geom::Vec2 from, geom::Vec2 to,
                      const std::vector<graph::NodeId>& waypoints) {
  double len = 0.0;
  geom::Vec2 prev = from;
  for (graph::NodeId w : waypoints) {
    const geom::Vec2 p = net.ldel().position(w);
    len += geom::dist(prev, p);
    prev = p;
  }
  return len + geom::dist(prev, to);
}

// ---------------------------------------------------------------------------
// ldel_invariants
// ---------------------------------------------------------------------------

/// Where two graphs' adjacency lists first differ, order included; empty
/// when identical.
std::string adjacencyDifference(const std::string& name, const graph::GeometricGraph& want,
                                const graph::GeometricGraph& got) {
  if (want.numNodes() != got.numNodes()) return name + " node counts differ";
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(got.numNodes()); ++v) {
    if (!std::ranges::equal(want.neighbors(v), got.neighbors(v))) {
      return name + " adjacency of node " + std::to_string(v) + " differs";
    }
  }
  return {};
}

/// Where two LDel constructions first differ; empty when byte-identical.
std::string ldelDifference(const delaunay::LocalizedDelaunay& want,
                           const delaunay::LocalizedDelaunay& got) {
  if (auto d = adjacencyDifference("UDG", want.udg, got.udg); !d.empty()) return d;
  if (auto d = adjacencyDifference("LDel", want.graph, got.graph); !d.empty()) return d;
  if (want.triangles != got.triangles) return "localized triangles differ";
  if (want.gabrielEdges != got.gabrielEdges) return "Gabriel edges differ";
  if (want.removedCrossings != got.removedCrossings) {
    return "planarizer removed " + std::to_string(got.removedCrossings) + " crossings, not " +
           std::to_string(want.removedCrossings);
  }
  return {};
}

OracleResult checkLdelInvariants(const CaseContext& ctx) {
  const auto& net = ctx.net();
  const auto& ldel = net.ldel();
  const double radius = net.radius();

  // The fast construction must match the reference byte for byte.
  delaunay::LDelOptions opts;
  opts.radius = radius;
  opts.reliableRadius = radius;
  opts.threads = ctx.threads();
  const std::string diff =
      ldelDifference(referenceLocalizedDelaunay(ctx.scenario().points, opts), net.ldelResult());
  if (!diff.empty()) return failResult("LDel^2 differs from the reference build: " + diff);

  if (!ldel.isPlanarEmbedding()) {
    return failResult("LDel^2 embedding has crossing edges");
  }
  for (const auto& [u, v] : ldel.edges()) {
    if (ldel.edgeLength(u, v) > radius + kEps) {
      std::ostringstream os;
      os << "LDel edge " << u << "-" << v << " longer than the radius: "
         << ldel.edgeLength(u, v);
      return failResult(os.str());
    }
    if (!net.udg().hasEdge(u, v)) {
      std::ostringstream os;
      os << "LDel edge " << u << "-" << v << " missing from the UDG";
      return failResult(os.str());
    }
  }
  if (ldel.numNodes() > 1 && !ldel.isConnected()) {
    return failResult("LDel disconnected on a connected UDG");
  }
  // The hull-augmented LDel^2 is a connected plane graph, so its face walks
  // satisfy Euler's formula; a hull edge through a node breaks it.
  if (ldel.numNodes() > 1) {
    const auto& faces = net.subdivision().faces();
    const long euler =
        static_cast<long>(ldel.numNodes()) - faces.numHalfEdges() / 2 + faces.numFaces();
    if (euler != 2) {
      std::ostringstream os;
      os << "hull-augmented LDel faces break Euler's formula: V - E + F = " << euler;
      return failResult(os.str());
    }
  }
  // Spanner samples (Thm 2.9: LDel^2 is a 1.998-spanner of the UDG).
  for (std::size_t i = 0; i < ctx.pairs().size(); ++i) {
    const auto [s, t] = ctx.pairs()[i];
    const double udg = net.shortestUdgDistance(s, t);
    const double spanner = graph::shortestPathLength(ldel, s, t);
    if (spanner > 1.998 * udg + kEps) {
      std::ostringstream os;
      os << "spanner ratio violated for pair " << i << " (" << s << "->" << t
         << "): ldel=" << spanner << " udg=" << udg;
      return failResult(os.str());
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// hull_invariants
// ---------------------------------------------------------------------------

OracleResult checkHullInvariants(const CaseContext& ctx) {
  const auto& net = ctx.net();
  const auto& abstractions = net.abstractions();
  const auto& holes = net.holes().holes;

  for (std::size_t i = 0; i < abstractions.size(); ++i) {
    const auto& a = abstractions[i];
    if (a.hullPolygon.size() < 3) continue;
    if (!a.hullPolygon.isConvex()) {
      std::ostringstream os;
      os << "hull of hole " << a.holeIndex << " is not convex";
      return failResult(os.str());
    }
    // Every ring node of the hole lies inside (or on) its convex hull.
    const auto& ring = holes[static_cast<std::size_t>(a.holeIndex)].ring;
    for (graph::NodeId v : ring) {
      if (!a.hullPolygon.contains(net.ldel().position(v))) {
        std::ostringstream os;
        os << "ring node " << v << " of hole " << a.holeIndex
           << " escapes its convex hull";
        return failResult(os.str());
      }
    }
  }

  // convexHullsDisjoint() must agree with the pairwise hull predicate that
  // the router's Auto mode reads. The predicates differ on purpose at exact
  // boundary contact (the network check is strict, the pairwise one is
  // not), so only the one-sided implication is checked.
  if (!net.convexHullsDisjoint() && !abstraction::anyHullsIntersect(abstractions)) {
    return failResult(
        "convexHullsDisjoint() reports an intersection but no hull pair "
        "intersects under convexPolygonsIntersect");
  }
  return {};
}

// ---------------------------------------------------------------------------
// overlay_parity
// ---------------------------------------------------------------------------

void applyBug(InjectedBug bug, routing::OverlayRoute& fresh) {
  switch (bug) {
    case InjectedBug::DropOverlayWaypoint:
      if (!fresh.waypoints.empty()) fresh.waypoints.pop_back();
      break;
    case InjectedBug::InflateOverlayDistance:
      if (fresh.reachable && fresh.distance > 0.0 &&
          !std::isinf(fresh.distance)) {
        fresh.distance *= 1.01;
      }
      break;
    case InjectedBug::SwapDeliveryOrder:  // sim-only; handled by its oracle
    case InjectedBug::DropLabelHub:       // label-slab-only; handled by label_parity
    case InjectedBug::WrongNextHop:       // node-label-only; handled by stateless_parity
    case InjectedBug::DropBBoxCorner:     // bbox-site-only; handled by bbox_parity
    case InjectedBug::None:
      break;
  }
}

OracleResult checkOverlayParity(const CaseContext& ctx) {
  const auto& net = ctx.net();
  const auto bbox = geom::BBox::of(net.ldel().positions());
  std::mt19937_64 rng(deriveSeed(ctx.seed(), 0x6f766c79 /* "ovly" */));
  std::uniform_real_distribution<double> dx(bbox.lo.x, bbox.hi.x);
  std::uniform_real_distribution<double> dy(bbox.lo.y, bbox.hi.y);
  std::uniform_int_distribution<int> pickNode(
      0, static_cast<int>(net.ldel().numNodes()) - 1);

  for (const routing::EdgeMode em :
       {routing::EdgeMode::Visibility, routing::EdgeMode::Delaunay}) {
    routing::HybridOptions opts{.sites = routing::SiteMode::HullNodes, .edges = em};
    opts.abstraction = ctx.abstractionMode();
    const auto router = net.makeRouter(opts);
    const routing::OverlayGraph& overlay = router->overlay();
    if (overlay.sites().empty()) continue;  // hole-free instance: nothing to differ
    std::uniform_int_distribution<int> pickSite(
        0, static_cast<int>(overlay.sites().size()) - 1);

    for (int q = 0; q < 10; ++q) {
      geom::Vec2 a{dx(rng), dy(rng)};
      geom::Vec2 b{dx(rng), dy(rng)};
      // Mix in node- and site-coincident endpoints: cost-0 entries and the
      // pure table-lookup branch have their own code paths.
      if (q % 3 == 1) a = net.ldel().position(pickNode(rng));
      if (q % 3 == 2) {
        a = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
        b = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
      }

      const routing::OverlayRoute ref = referenceOverlayQuery(overlay, a, b);
      routing::OverlayRoute fresh = overlay.waypointsWithDistance(a, b);
      applyBug(ctx.bug(), fresh);

      std::ostringstream at;
      at << (em == routing::EdgeMode::Visibility ? "visibility" : "delaunay")
         << " query " << q << " (" << a.x << "," << a.y << ")->(" << b.x << "," << b.y
         << ")";
      if (fresh.reachable != ref.reachable) {
        return failResult("overlay reachability mismatch at " + at.str());
      }
      if (!fresh.reachable) continue;
      if (!closeEnough(fresh.distance, ref.distance, kDistEps)) {
        std::ostringstream os;
        os << "overlay distance mismatch at " << at.str() << ": engine="
           << fresh.distance << " rebuild=" << ref.distance;
        return failResult(os.str());
      }
      // Tie-broken waypoint lists may differ; both must realize the optimum.
      if (fresh.waypoints != ref.waypoints || ctx.bug() != InjectedBug::None) {
        const double len = polylineLength(net, a, b, fresh.waypoints);
        if (!closeEnough(len, ref.distance, kDistEps)) {
          std::ostringstream os;
          os << "overlay waypoints do not realize the optimal distance at "
             << at.str() << ": polyline=" << len << " optimal=" << ref.distance;
          return failResult(os.str());
        }
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// route_batch_parity
// ---------------------------------------------------------------------------

bool sameRoute(const routing::RouteResult& a, const routing::RouteResult& b) {
  return a.path == b.path && a.delivered == b.delivered &&
         a.blockedHole == b.blockedHole && a.fallbacks == b.fallbacks &&
         a.bayExtremePoints == b.bayExtremePoints && a.protocolCase == b.protocolCase;
}

OracleResult checkRouteBatchParity(const CaseContext& ctx) {
  if (ctx.pairs().empty()) return skipResult();
  const auto& net = ctx.net();
  // --router stateless swaps the serving engine under the same parity
  // check: the per-node label forwarder must also be bit-identical to its
  // serial loop at any thread count.
  std::unique_ptr<routing::StatelessRouter> stateless;
  if (ctx.routerKind() == RouterKind::Stateless) {
    stateless = std::make_unique<routing::StatelessRouter>(net.ldel(), 1);
  }
  const auto routeOne = [&](const routing::RoutePair& p) {
    return stateless ? stateless->route(p.source, p.target) : net.route(p.source, p.target);
  };
  std::vector<routing::RouteResult> serial;
  serial.reserve(ctx.pairs().size());
  for (const auto& p : ctx.pairs()) serial.push_back(routeOne(p));

  // The doubled and odd counts stress the chunk plan: uneven tails, more
  // chunks than queries, and the dynamic handout all get exercised.
  for (const int threads : {ctx.threads(), ctx.threads() * 2, ctx.threads() * 2 + 1}) {
    const auto batch = stateless ? stateless->routeBatch(ctx.pairs(), threads)
                                 : net.routeBatch(ctx.pairs(), threads);
    if (batch.size() != serial.size()) {
      return failResult("routeBatch returned a different number of results");
    }
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (!sameRoute(batch[i], serial[i])) {
        std::ostringstream os;
        os << "routeBatch(" << threads << " threads) diverges from serial at pair "
           << i << " (" << ctx.pairs()[i].source << "->" << ctx.pairs()[i].target
           << ")";
        return failResult(os.str());
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// competitive_bound
// ---------------------------------------------------------------------------

OracleResult checkCompetitiveBound(const CaseContext& ctx) {
  if (ctx.pairs().empty()) return skipResult();
  const auto& net = ctx.net();
  const bool disjoint = net.convexHullsDisjoint();

  struct Bounded {
    routing::EdgeMode mode;
    double bound;
    const char* label;
  };
  const Bounded routers[] = {
      {routing::EdgeMode::Visibility, 17.7, "visibility"},
      {routing::EdgeMode::Delaunay, 35.37, "delaunay"},
  };
  for (const auto& [mode, bound, label] : routers) {
    const auto router = net.makeRouter({.sites = routing::SiteMode::AllHoleNodes, .edges = mode});
    for (std::size_t i = 0; i < ctx.pairs().size(); ++i) {
      const auto [s, t] = ctx.pairs()[i];
      const auto r = router->route(s, t);
      std::ostringstream at;
      at << label << " pair " << i << " (" << s << "->" << t << ")";
      if (!r.delivered) {
        return failResult("route not delivered at " + at.str());
      }
      if (r.path.front() != s || r.path.back() != t) {
        return failResult("route endpoints wrong at " + at.str());
      }
      for (std::size_t k = 0; k + 1 < r.path.size(); ++k) {
        if (!net.ldel().hasEdge(r.path[k], r.path[k + 1])) {
          std::ostringstream os;
          os << "route uses a non-edge " << r.path[k] << "-" << r.path[k + 1]
             << " at " << at.str();
          return failResult(os.str());
        }
      }
      // The paper's c-competitiveness is conditional on disjoint convex
      // hulls and holds for pure protocol routes (fallbacks flag gaps).
      // When hulls intersect, only delivery + validity are required: that
      // is the documented fallback behavior for the unsupported case.
      if (disjoint && r.fallbacks == 0) {
        const double stretch = net.stretch(r, s, t);
        if (stretch > bound + kEps) {
          std::ostringstream os;
          os << "competitive bound violated at " << at.str() << ": stretch="
             << stretch << " bound=" << bound;
          return failResult(os.str());
        }
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// metamorphic_paths
// ---------------------------------------------------------------------------

OracleResult checkMetamorphicPaths(const CaseContext& ctx) {
  if (ctx.pairs().empty()) return skipResult();
  const auto& net = ctx.net();
  std::mt19937_64 rng(deriveSeed(ctx.seed(), 0x6d657461 /* "meta" */));
  std::uniform_int_distribution<int> pickNode(
      0, static_cast<int>(net.ldel().numNodes()) - 1);

  for (std::size_t i = 0; i < ctx.pairs().size(); ++i) {
    const auto [s, t] = ctx.pairs()[i];
    const double st = net.shortestUdgDistance(s, t);
    const double ts = net.shortestUdgDistance(t, s);
    std::ostringstream at;
    at << "pair " << i << " (" << s << "->" << t << ")";
    if (!closeEnough(st, ts, kEps)) {
      std::ostringstream os;
      os << "d(s,t) asymmetric at " << at.str() << ": " << st << " vs " << ts;
      return failResult(os.str());
    }
    const double euclid = geom::dist(net.ldel().position(s), net.ldel().position(t));
    if (st + kEps < euclid) {
      std::ostringstream os;
      os << "d(s,t) below the Euclidean distance at " << at.str();
      return failResult(os.str());
    }
    const int m = pickNode(rng);
    const double sm = net.shortestUdgDistance(s, m);
    const double mt = net.shortestUdgDistance(m, t);
    if (st > sm + mt + kEps) {
      std::ostringstream os;
      os << "triangle inequality violated at " << at.str() << " via " << m << ": "
         << st << " > " << sm << " + " << mt;
      return failResult(os.str());
    }
    const auto r = net.route(s, t);
    if (r.delivered) {
      const double len = r.length(net.ldel());
      if (len + kEps < st) {
        std::ostringstream os;
        os << "delivered route shorter than the shortest path at " << at.str()
           << ": " << len << " < " << st;
        return failResult(os.str());
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// arq_vs_faultfree
// ---------------------------------------------------------------------------

OracleResult checkArqVsFaultFree(const CaseContext& ctx) {
  const auto& net = ctx.net();
  // The distributed construction is O(n * deg^2) work per run; bound the
  // instance size so one fuzz trial stays in the tens of milliseconds.
  if (net.udg().numNodes() > 220 || net.udg().numNodes() < 4) return skipResult();

  sim::Simulator clean(net.udg());
  const auto reference = protocols::runLdelConstruction(clean, net.radius());
  auto refEdges = reference.graph.edges();
  std::sort(refEdges.begin(), refEdges.end());

  sim::FaultConfig cfg;
  cfg.seed = deriveSeed(ctx.seed(), 0x61727121 /* "arq!" */);
  cfg.adHocDrop = 0.08;
  cfg.adHocDuplicate = 0.04;
  cfg.adHocDelay = 0.05;
  const protocols::RetryPolicy retry;
  sim::Simulator lossy(net.udg(), sim::FaultPlan(cfg));
  lossy.setThreads(ctx.threads());
  const auto faulty = protocols::runLdelConstruction(lossy, net.radius(), &retry);

  auto edges = faulty.graph.edges();
  std::sort(edges.begin(), edges.end());
  if (edges != refEdges) {
    std::ostringstream os;
    os << "LDel under lossy ARQ diverges from the fault-free run: "
       << edges.size() << " vs " << refEdges.size() << " edges";
    return failResult(os.str());
  }
  if (faulty.isBoundary != reference.isBoundary) {
    return failResult("boundary flags under lossy ARQ diverge from the fault-free run");
  }
  if (faulty.rounds < reference.rounds) {
    return failResult("lossy ARQ run finished in fewer rounds than the fault-free run");
  }
  return {};
}

// ---------------------------------------------------------------------------
// sim_delivery_parity
// ---------------------------------------------------------------------------

/// Thread-compatible mix workload (strictly per-node state) exercising both
/// send paths: ad hoc gossip with ID introductions, long-range replies once
/// IDs are learned. Mirrors the sim_threads_test workload so the oracle and
/// the unit test pin the same delivery-order contract.
class ParityMixProtocol : public sim::Protocol {
 public:
  ParityMixProtocol(std::size_t n, int rounds) : rounds_(rounds), heard_(n, 0) {}

  void onStart(sim::Context& ctx) override { gossip(ctx); }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    auto& h = heard_[static_cast<std::size_t>(ctx.self())];
    ++h;
    if (m.type == 1 && !m.ids.empty() && h % 3 == 0) {
      const int target = m.ids.back();
      if (target != ctx.self() && ctx.knows(target)) {
        sim::Message reply;
        reply.type = 2;
        reply.ints = {static_cast<std::int64_t>(ctx.self()), h};
        ctx.sendLongRange(target, std::move(reply));
      }
    }
  }

  void onRoundEnd(sim::Context& ctx) override {
    if (ctx.round() < rounds_) gossip(ctx);
  }

 private:
  void gossip(sim::Context& ctx) {
    const auto nbs = ctx.udgNeighbors();
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      sim::Message m;
      m.type = 1;
      m.ints = {static_cast<std::int64_t>(ctx.round())};
      m.ids.push_back(nbs[(i + 1) % nbs.size()]);
      ctx.sendAdHoc(nbs[i], std::move(m));
    }
  }

  int rounds_;
  std::vector<long> heard_;
};

struct SimParityRun {
  std::string trace;
  long totalMessages = 0;
  long receivedWords = 0;
  int rounds = 0;
};

/// The lossy leg's plan: every fault the simulator injects — drops on both
/// channels, duplicates, delays, one crash interval and one blackout.
sim::FaultConfig parityFaults(std::size_t n) {
  sim::FaultConfig cfg;
  cfg.seed = 0x51D0;
  cfg.adHocDrop = 0.08;
  cfg.adHocDuplicate = 0.05;
  cfg.adHocDelay = 0.07;
  cfg.longRangeDrop = 0.10;
  cfg.maxDelayRounds = 3;
  cfg.crashes.push_back({static_cast<int>(n / 2), 2, 5});
  cfg.blackouts.push_back({3, 5});
  return cfg;
}

/// The mix workload at `threads`, plain or (lossy) wrapped in the ARQ
/// transport under parityFaults().
SimParityRun runSimParity(const graph::GeometricGraph& udg, int threads, bool lossy) {
  const std::size_t n = udg.numNodes();
  sim::Simulator sim(udg, lossy ? sim::FaultPlan(parityFaults(n)) : sim::FaultPlan());
  sim.setThreads(threads);
  // The differential must run real worker threads even when the box has
  // fewer cores than `threads`.
  sim.setAllowOversubscribe(true);
  sim.enableTrace();
  ParityMixProtocol proto(n, 6);
  SimParityRun r;
  if (lossy) {
    protocols::ReliableProtocol reliable(sim, proto);
    r.rounds = sim.run(reliable, 400);
  } else {
    r.rounds = sim.run(proto, 60);
  }
  r.trace = sim.trace();
  r.totalMessages = sim.totalMessages();
  for (const auto& s : sim.stats()) r.receivedWords += s.receivedWords;
  return r;
}

/// Simulates a broken (recipient, sender, send-index) tie-break: swap the
/// first two lines of the threaded trace.
void swapFirstTwoTraceLines(std::string& trace) {
  const auto first = trace.find('\n');
  if (first == std::string::npos || first + 1 >= trace.size()) return;
  const auto second = trace.find('\n', first + 1);
  if (second == std::string::npos) return;
  trace = trace.substr(first + 1, second - first) + trace.substr(0, first + 1) +
          trace.substr(second + 1);
}

/// The delivery-order contract, checked on the trace itself: rounds ascend,
/// and within a round lines never decrease in (recipient, sender). Returns
/// the number of lines that break it (an unparsable line counts too) and
/// sets `*firstBad` to the first one's 1-based line number.
std::size_t outOfOrderLines(const std::string& trace, std::size_t* firstBad) {
  std::size_t bad = 0;
  std::size_t line = 0;
  long long last[3] = {-1, -1, -1};
  for (std::size_t pos = 0; pos < trace.size();) {
    const std::size_t eol = std::min(trace.find('\n', pos), trace.size());
    ++line;
    // Scan a bounded copy of the line head: sscanf on the whole trace would
    // measure the rest of it on every line.
    char head[48] = {};
    trace.copy(head, std::min<std::size_t>(eol - pos, sizeof head - 1), pos);
    int round = 0, from = 0, to = 0;
    char tag[3];
    const bool parsed = std::sscanf(head, "R%d %2s %d>%d", &round, tag, &from, &to) == 4;
    const long long key[3] = {round, to, from};
    if (!parsed || std::lexicographical_compare(key, key + 3, last, last + 3)) {
      if (bad++ == 0) *firstBad = line;
    }
    std::copy(key, key + 3, last);
    pos = eol + 1;
  }
  return bad;
}

OracleResult checkSimDeliveryParity(const CaseContext& ctx) {
  const auto& udg = ctx.net().udg();
  // Trace-producing rounds are O(messages); bound the instance so one fuzz
  // trial stays cheap.
  if (udg.numNodes() > 260 || udg.numNodes() < 2) return skipResult();

  for (const bool lossy : {false, true}) {
    const SimParityRun serial = runSimParity(udg, 1, lossy);
    for (const int threads : {1, ctx.threads(), ctx.threads() * 2}) {
      SimParityRun run = threads == 1 ? serial : runSimParity(udg, threads, lossy);
      if (threads > 1 && ctx.bug() == InjectedBug::SwapDeliveryOrder) {
        swapFirstTwoTraceLines(run.trace);
      }
      std::ostringstream os;
      os << (lossy ? "lossy ARQ" : "fault-free") << " run at " << threads << " threads: ";
      std::size_t firstBad = 0;
      if (const std::size_t bad = outOfOrderLines(run.trace, &firstBad); bad > 0) {
        os << bad << " trace lines out of (round, recipient, sender) order, first: " << firstBad;
        return failResult(os.str());
      }
      if (run.trace != serial.trace) {
        std::size_t byte = 0;
        const std::size_t limit = std::min(run.trace.size(), serial.trace.size());
        while (byte < limit && run.trace[byte] == serial.trace[byte]) ++byte;
        os << "trace diverges from the 1-thread run at byte " << byte;
        return failResult(os.str());
      }
      if (run.totalMessages != serial.totalMessages) {
        os << "messages " << run.totalMessages << " vs " << serial.totalMessages << " at 1 thread";
        return failResult(os.str());
      }
      if (run.receivedWords != serial.receivedWords) {
        os << "words " << run.receivedWords << " vs " << serial.receivedWords << " at 1 thread";
        return failResult(os.str());
      }
      if (run.rounds != serial.rounds) {
        os << "rounds " << run.rounds << " vs " << serial.rounds << " at 1 thread";
        return failResult(os.str());
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// label_parity
// ---------------------------------------------------------------------------

OracleResult checkLabelParity(const CaseContext& ctx) {
  const auto& net = ctx.net();
  const auto router = net.makeRouter(
      {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
  const routing::OverlayGraph& overlay = router->overlay();
  if (overlay.sites().empty()) return skipResult();  // hole-free: no labels to check
  const routing::HubLabelOracle& integrated = overlay.hubLabels();
  const graph::CsrAdjacency csr = graph::buildCsr(overlay.siteAdjacency(), overlay.sitePositions());
  const int h = static_cast<int>(overlay.sitePositions().size());

  // Thread invariance + the drop-label-hub bug surface: local rebuilds at
  // several thread counts must be byte-identical to the integrated slab.
  // The planted defect corrupts the local copy, so this equality is the
  // net that must catch it.
  for (const unsigned th : {static_cast<unsigned>(ctx.threads()), 1u, 5u}) {
    routing::HubLabelOracle local;
    local.build(csr, th);
    if (ctx.bug() == InjectedBug::DropLabelHub) {
      local.corruptDropHubForTest(static_cast<int>(ctx.seed() % static_cast<std::uint64_t>(h)));
    }
    if (local.offsets() != integrated.offsets() ||
        local.entries() != integrated.entries()) {
      std::ostringstream os;
      os << "hub-label slab built at " << th
         << " threads diverges from the integrated build";
      return failResult(os.str());
    }
  }

  // Every site-pair distance against the dense reference table.
  const SiteTable table = referenceSiteTable(csr, static_cast<unsigned>(ctx.threads()));
  for (int s = 0; s < h; ++s) {
    for (int t = 0; t < h; ++t) {
      const double want = table.distance(s, t);
      const double got = integrated.distance(s, t);
      if (!closeEnough(got, want, kDistEps)) {
        std::ostringstream os;
        os << "label distance mismatch at site pair " << s << "->" << t << ": labels=" << got
           << " dense=" << want;
        return failResult(os.str());
      }
    }
  }

  // Sampled site pairs: label paths are real site-graph paths between the
  // endpoints that realize the label distance.
  std::mt19937_64 rng(deriveSeed(ctx.seed(), 0x6c61626c /* "labl" */));
  std::uniform_int_distribution<int> pickSite(0, h - 1);
  std::vector<int> path;
  for (int a = 0; a < std::min(h, 4); ++a) {
    const int s = pickSite(rng);
    for (int b = 0; b < 8; ++b) {
      const int t = pickSite(rng);
      const double want = integrated.distance(s, t);
      std::ostringstream at;
      at << "site pair " << s << "->" << t;
      path.clear();
      const bool reached = integrated.path(s, t, path);
      if (reached == std::isinf(want)) {
        return failResult("label path reachability disagrees with the distance at " +
                          at.str());
      }
      if (!reached) continue;
      if (path.front() != s || path.back() != t) {
        return failResult("label path endpoints wrong at " + at.str());
      }
      double len = 0.0;
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        const int u = path[k];
        const int v = path[k + 1];
        const auto& nbs = overlay.siteAdjacency()[static_cast<std::size_t>(u)];
        if (std::find(nbs.begin(), nbs.end(), v) == nbs.end()) {
          std::ostringstream os;
          os << "label path uses a non-edge " << u << "-" << v << " at " << at.str();
          return failResult(os.str());
        }
        len += geom::dist(overlay.sitePositions()[static_cast<std::size_t>(u)],
                          overlay.sitePositions()[static_cast<std::size_t>(v)]);
      }
      if (!closeEnough(len, want, kDistEps)) {
        std::ostringstream os;
        os << "label path does not realize the label distance at " << at.str()
           << ": path=" << len << " distance=" << want;
        return failResult(os.str());
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// stateless_parity
// ---------------------------------------------------------------------------

OracleResult checkStatelessParity(const CaseContext& ctx) {
  if (ctx.pairs().empty()) return skipResult();
  const auto& g = ctx.net().ldel();
  const std::size_t n = g.numNodes();
  if (n < 2 || n > 300) return skipResult();

  const graph::CsrAdjacency csr = graph::buildCsr(g);
  routing::HubLabelOracle oracle;
  oracle.build(csr, static_cast<unsigned>(ctx.threads()));
  routing::NodeLabels labels;
  labels.build(oracle);

  // The label derivation is a deterministic function of the (already
  // thread-invariant) oracle slab: rebuilds at other thread counts must be
  // identical objects.
  for (const unsigned th : {1u, 5u}) {
    routing::HubLabelOracle o2;
    o2.build(csr, th);
    routing::NodeLabels l2;
    l2.build(o2);
    if (!(l2 == labels)) {
      std::ostringstream os;
      os << "per-node labels built at " << th << " threads diverge";
      return failResult(os.str());
    }
  }

  // The planted wrong-next-hop defect corrupts the serving copy only; the
  // hop walk below is the net that must catch it. Routing the corrupted
  // node toward the corrupted hub is the query guaranteed to step on the
  // defective entry (its meet hub is the hub itself), so that pair joins
  // the sampled ones.
  std::vector<routing::RoutePair> pairs(ctx.pairs().begin(), ctx.pairs().end());
  if (ctx.bug() == InjectedBug::WrongNextHop) {
    const auto hit = labels.corruptNextHopForTest(static_cast<int>(ctx.seed() % n));
    if (hit.node >= 0) pairs.push_back({hit.node, hit.hub});
  }
  const routing::StatelessRouter router(std::move(labels));

  // Hop walk vs the centralized label path: same delivery verdict, walked
  // edges are real graph edges, and the walked length realizes the exact
  // label distance. On hub-id ties the two may pick different shortest
  // paths, so the comparison is by length, not node sequence.
  std::vector<int> refPath;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const int s = pairs[i].source;
    const int t = pairs[i].target;
    const double want = oracle.distance(s, t);
    refPath.clear();
    const bool refOk = oracle.path(s, t, refPath);
    const routing::RouteResult r = router.route(s, t);
    std::ostringstream at;
    at << "pair " << i << " (" << s << "->" << t << ")";
    if (r.delivered != refOk) {
      std::ostringstream os;
      os << "stateless walk " << (r.delivered ? "delivered" : "failed") << " but the "
         << "centralized label path " << (refOk ? "exists" : "does not") << " at "
         << at.str();
      return failResult(os.str());
    }
    if (!r.delivered) {
      if (!std::isinf(want)) {
        return failResult("walk failed on a label-connected pair at " + at.str());
      }
      continue;
    }
    if (r.path.front() != s || r.path.back() != t) {
      return failResult("walked path endpoints wrong at " + at.str());
    }
    for (std::size_t k = 0; k + 1 < r.path.size(); ++k) {
      const auto nbs = g.neighbors(r.path[k]);
      if (std::find(nbs.begin(), nbs.end(), r.path[k + 1]) == nbs.end()) {
        std::ostringstream os;
        os << "walk uses a non-edge " << r.path[k] << "-" << r.path[k + 1] << " at "
           << at.str();
        return failResult(os.str());
      }
    }
    const double walked = g.pathLength(r.path);
    if (!closeEnough(walked, want, kDistEps)) {
      std::ostringstream os;
      os << "walked length diverges from the label distance at " << at.str()
         << ": walk=" << walked << " labels=" << want;
      return failResult(os.str());
    }
    const double refLen = g.pathLength(refPath);
    if (!closeEnough(walked, refLen, kDistEps)) {
      std::ostringstream os;
      os << "walked length diverges from the centralized path at " << at.str()
         << ": walk=" << walked << " central=" << refLen;
      return failResult(os.str());
    }
  }

  // Embarrassingly parallel serving: no shared mutable state means the
  // batch must be bit-identical to the serial loop at any thread count.
  std::vector<routing::RouteResult> serial;
  serial.reserve(ctx.pairs().size());
  for (const auto& p : ctx.pairs()) serial.push_back(router.route(p.source, p.target));
  for (const int threads : {1, ctx.threads(), ctx.threads() * 2}) {
    const auto batch = router.routeBatch(ctx.pairs(), threads);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (!sameRoute(batch[i], serial[i])) {
        std::ostringstream os;
        os << "stateless routeBatch(" << threads << " threads) diverges from serial at pair "
           << i;
        return failResult(os.str());
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// bbox_parity
// ---------------------------------------------------------------------------

OracleResult checkBBoxParity(const CaseContext& ctx) {
  if (ctx.pairs().empty()) return skipResult();
  const auto& net = ctx.net();

  // Local recomputation of the abstraction; the planted drop-bbox-corner
  // defect corrupts this copy, so the site-set equality against the
  // integrated overlay below is the net that must catch it.
  auto groups =
      abstraction::buildBBoxOverlay(net.ldel(), net.holes(), net.abstractions());
  if (ctx.bug() == InjectedBug::DropBBoxCorner) {
    for (auto git = groups.rbegin(); git != groups.rend(); ++git) {
      auto hit = std::find_if(git->holeSites.rbegin(), git->holeSites.rend(),
                              [](const auto& hs) { return !hs.sites.empty(); });
      if (hit != git->holeSites.rend()) {
        hit->sites.pop_back();
        break;
      }
    }
  }

  // Structural invariants: merged boxes are pairwise disjoint and cover
  // their member holes; each hole contributes at most 8 of its ring nodes.
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto& g = groups[i];
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      if (g.box.intersects(groups[j].box)) {
        std::ostringstream os;
        os << "merged boxes " << i << " and " << j << " intersect";
        return failResult(os.str());
      }
    }
    if (g.holeSites.size() != g.members.size()) {
      return failResult("box group hole-site list does not match its members");
    }
    for (const auto& hs : g.holeSites) {
      const auto& a = net.abstractions()[static_cast<std::size_t>(hs.abstraction)];
      const auto& ring = net.holes().holes[static_cast<std::size_t>(a.holeIndex)].ring;
      if (hs.sites.size() > 8) {
        std::ostringstream os;
        os << "hole " << a.holeIndex << " contributes " << hs.sites.size()
           << " sites (corner/projection rule allows at most 8)";
        return failResult(os.str());
      }
      for (const graph::NodeId v : hs.sites) {
        if (std::find(ring.begin(), ring.end(), v) == ring.end()) {
          std::ostringstream os;
          os << "bbox site " << v << " is not on the ring of hole " << a.holeIndex;
          return failResult(os.str());
        }
      }
      for (const graph::NodeId v : ring) {
        if (!g.box.contains(net.ldel().position(v))) {
          std::ostringstream os;
          os << "merged box " << i << " does not cover ring node " << v << " of hole "
             << a.holeIndex;
          return failResult(os.str());
        }
      }
    }
  }
  std::vector<graph::NodeId> localSites;
  for (const auto& g : groups) {
    for (const auto& hs : g.holeSites) {
      localSites.insert(localSites.end(), hs.sites.begin(), hs.sites.end());
    }
  }
  std::sort(localSites.begin(), localSites.end());
  localSites.erase(std::unique(localSites.begin(), localSites.end()), localSites.end());

  for (const routing::EdgeMode em :
       {routing::EdgeMode::Visibility, routing::EdgeMode::Delaunay}) {
    const char* label = em == routing::EdgeMode::Visibility ? "visibility" : "delaunay";
    routing::HybridOptions opts{.sites = routing::SiteMode::HullNodes, .edges = em};
    opts.abstraction = routing::AbstractionMode::BBox;
    const auto router = net.makeRouter(opts);
    if (!router->usesBBox()) {
      return failResult("bbox abstraction requested but not engaged");
    }
    std::vector<graph::NodeId> overlaySites = router->overlay().sites();
    std::sort(overlaySites.begin(), overlaySites.end());
    if (overlaySites != localSites) {
      std::ostringstream os;
      os << label << " overlay site set (" << overlaySites.size()
         << ") diverges from the recomputed bbox abstraction (" << localSites.size()
         << ")";
      return failResult(os.str());
    }
    if (overlaySites.empty()) continue;  // hole-free: nothing to route around

    // Route validity + the scaled competitive bound. Unlike the hull
    // router (competitive_bound skips non-disjoint cases), the box bound
    // is checked on every instance — lifting that restriction is the
    // point of the abstraction; fallbacks still flag protocol gaps.
    const double bound = em == routing::EdgeMode::Visibility
                             ? abstraction::kBBoxVisibilityBound
                             : abstraction::kBBoxDelaunayBound;
    std::vector<routing::RouteResult> serial;
    serial.reserve(ctx.pairs().size());
    for (std::size_t i = 0; i < ctx.pairs().size(); ++i) {
      const auto [s, t] = ctx.pairs()[i];
      const auto r = router->route(s, t);
      std::ostringstream at;
      at << label << " pair " << i << " (" << s << "->" << t << ")";
      if (!r.delivered) {
        return failResult("bbox route not delivered at " + at.str());
      }
      if (r.path.front() != s || r.path.back() != t) {
        return failResult("bbox route endpoints wrong at " + at.str());
      }
      for (std::size_t k = 0; k + 1 < r.path.size(); ++k) {
        if (!net.ldel().hasEdge(r.path[k], r.path[k + 1])) {
          std::ostringstream os;
          os << "bbox route uses a non-edge " << r.path[k] << "-" << r.path[k + 1]
             << " at " << at.str();
          return failResult(os.str());
        }
      }
      if (r.fallbacks == 0) {
        const double stretch = net.stretch(r, s, t);
        if (stretch > bound + kEps) {
          std::ostringstream os;
          os << "bbox competitive bound violated at " << at.str()
             << ": stretch=" << stretch << " bound=" << bound;
          return failResult(os.str());
        }
      }
      serial.push_back(r);
    }

    // routeBatch bit-identity, serial vs threaded, in bbox mode.
    for (const int threads : {ctx.threads(), ctx.threads() * 2}) {
      const auto batch = router->routeBatch(ctx.pairs(), threads);
      if (batch.size() != serial.size()) {
        return failResult("bbox routeBatch returned a different number of results");
      }
      for (std::size_t i = 0; i < serial.size(); ++i) {
        if (!sameRoute(batch[i], serial[i])) {
          std::ostringstream os;
          os << "bbox routeBatch(" << threads << " threads, " << label
             << ") diverges from serial at pair " << i << " ("
             << ctx.pairs()[i].source << "->" << ctx.pairs()[i].target << ")";
          return failResult(os.str());
        }
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// churn_serving
// ---------------------------------------------------------------------------

OracleResult checkChurnServing(const CaseContext& ctx) {
  // Every epoch is cross-checked against a from-scratch build, so cap the
  // size to keep the fuzz loop fast; tiny cases churn straight into the
  // RouteService::kMinNodes floor and prove nothing.
  if (ctx.scenario().points.size() < 12 || ctx.scenario().points.size() > 250) {
    return skipResult();
  }

  serve::ServiceOptions opts;
  opts.router.abstraction = ctx.abstractionMode();
  opts.updateFaults.seed = deriveSeed(ctx.seed(), 0x63687266 /* "chrf" */);
  opts.updateFaults.adHocDrop = 0.1;
  opts.updateFaults.adHocDuplicate = 0.1;
  opts.updateFaults.adHocDelay = 0.15;
  serve::RouteService service(ctx.scenario(), opts);

  scenario::ChurnParams churn;
  churn.seed = deriveSeed(ctx.seed(), 0x6368726e /* "chrn" */);
  churn.epochs = 4;
  churn.updatesPerEpoch = 5;
  const auto trace = scenario::makeChurnTrace(ctx.scenario(), churn);

  std::mt19937_64 rng(deriveSeed(ctx.seed(), 0x73727665 /* "srve" */));
  for (const auto& batch : trace) {
    service.enqueue(batch);

    // A reader keeps routing while the updater swaps epochs; its answers
    // are not inspected (a query may legitimately land on either side of
    // the swap) — the point is that publishing under load is safe and the
    // outgoing snapshot stays valid while pinned.
    const auto pinned = service.snapshot();
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      const int n = static_cast<int>(pinned->scenario.points.size());
      std::vector<routing::RoutePair> qs;
      for (int i = 0; i + 1 < n && i < 8; i += 2) qs.push_back({i, i + 1});
      while (!stop.load(std::memory_order_relaxed)) {
        service.routeBatch(qs, 2);
      }
    });
    const auto stats = service.applyUpdates();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    const auto snap = service.snapshot();
    if (snap->epoch != stats.epoch) {
      return failResult("published epoch does not match applyUpdates stats");
    }

    // Bit-identity of the serving loop vs a from-scratch build of the same
    // epoch: the serial route loop is the reference; the service's batch
    // path must match it at 1, k and 2k reader threads. This is what makes
    // Reused/Incremental epochs trustworthy — cheap builds, same answers.
    const core::HybridNetwork fresh(snap->scenario.points, service.options().ldel,
                                    service.options().router, nullptr);
    const int n = static_cast<int>(snap->scenario.points.size());
    if (n < 2) continue;
    std::uniform_int_distribution<int> pick(0, n - 1);
    std::vector<routing::RoutePair> pairs;
    while (pairs.size() < 16) {
      const int s = pick(rng);
      const int t = pick(rng);
      if (s != t) pairs.push_back({s, t});
    }
    std::vector<routing::RouteResult> reference;
    reference.reserve(pairs.size());
    for (const auto& p : pairs) reference.push_back(fresh.route(p.source, p.target));
    for (const int threads : {1, ctx.threads(), ctx.threads() * 2}) {
      const auto served = service.routeBatch(pairs, threads);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (!sameRoute(served[i], reference[i])) {
          std::ostringstream os;
          os << "epoch " << snap->epoch << " (" << serve::epochBuildName(snap->build)
             << " build, " << threads << " threads) diverges from a fresh build at pair "
             << i << " (" << pairs[i].source << "->" << pairs[i].target << ")";
          return failResult(os.str());
        }
      }
    }
  }
  return {};
}

}  // namespace

const char* bugName(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::DropOverlayWaypoint: return "drop-overlay-waypoint";
    case InjectedBug::InflateOverlayDistance: return "inflate-overlay-distance";
    case InjectedBug::SwapDeliveryOrder: return "swap-delivery-order";
    case InjectedBug::DropLabelHub: return "drop-label-hub";
    case InjectedBug::WrongNextHop: return "wrong-next-hop";
    case InjectedBug::DropBBoxCorner: return "drop-bbox-corner";
    case InjectedBug::None: break;
  }
  return "none";
}

InjectedBug parseInjectedBug(std::string_view name) {
  for (const InjectedBug b :
       {InjectedBug::DropOverlayWaypoint, InjectedBug::InflateOverlayDistance,
        InjectedBug::SwapDeliveryOrder, InjectedBug::DropLabelHub,
        InjectedBug::WrongNextHop, InjectedBug::DropBBoxCorner}) {
    if (name == bugName(b)) return b;
  }
  return InjectedBug::None;
}

std::optional<RouterKind> parseRouterKind(std::string_view name) {
  if (name == "centralized") return RouterKind::Centralized;
  if (name == "stateless") return RouterKind::Stateless;
  return std::nullopt;
}

CaseContext::CaseContext(scenario::Scenario sc, std::uint64_t seed, int threads,
                         InjectedBug bug, RouterKind router,
                         routing::AbstractionMode abstraction)
    : sc_(std::move(sc)),
      seed_(seed),
      threads_(threads < 1 ? 1 : threads),
      bug_(bug),
      router_(router),
      abstraction_(abstraction),
      net_(sc_.points, sc_.radius) {
  const int n = static_cast<int>(sc_.points.size());
  if (n < 2) return;
  std::mt19937_64 rng(deriveSeed(seed_, 0x70616972 /* "pair" */));
  std::uniform_int_distribution<int> pick(0, n - 1);
  const std::size_t want = std::min<std::size_t>(24, static_cast<std::size_t>(n) * 2);
  while (pairs_.size() < want) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s == t) continue;
    pairs_.push_back({s, t});
  }
}

const std::vector<Oracle>& oracles() {
  static const std::vector<Oracle> kOracles = {
      {"ldel_invariants", checkLdelInvariants},
      {"hull_invariants", checkHullInvariants},
      {"overlay_parity", checkOverlayParity},
      {"route_batch_parity", checkRouteBatchParity},
      {"competitive_bound", checkCompetitiveBound},
      {"metamorphic_paths", checkMetamorphicPaths},
      {"arq_vs_faultfree", checkArqVsFaultFree},
      {"sim_delivery_parity", checkSimDeliveryParity},
      {"label_parity", checkLabelParity},
      {"stateless_parity", checkStatelessParity},
      {"bbox_parity", checkBBoxParity},
      {"churn_serving", checkChurnServing},
  };
  return kOracles;
}

const Oracle* findOracle(std::string_view name) {
  for (const auto& o : oracles()) {
    if (name == o.name) return &o;
  }
  return nullptr;
}

routing::OverlayRoute referenceOverlayQuery(const routing::OverlayGraph& overlay,
                                            geom::Vec2 from, geom::Vec2 to) {
  const auto& sitePos = overlay.sitePositions();
  const auto& siteAdj = overlay.siteAdjacency();
  const auto& vis = overlay.visibility();
  const int ns = static_cast<int>(sitePos.size());

  routing::OverlayRoute ans;
  if (from == to) {
    ans.reachable = true;
    ans.distance = 0.0;
    return ans;
  }

  int fromSite = -1;
  int toSite = -1;
  for (int i = 0; i < ns; ++i) {
    if (sitePos[static_cast<std::size_t>(i)] == from) fromSite = i;
    if (sitePos[static_cast<std::size_t>(i)] == to) toSite = i;
  }

  std::vector<geom::Vec2> pts = sitePos;
  const int fromIdx = fromSite >= 0 ? fromSite : static_cast<int>(pts.size());
  if (fromSite < 0) pts.push_back(from);
  const int toIdx = toSite >= 0 ? toSite : static_cast<int>(pts.size());
  if (toSite < 0) pts.push_back(to);

  graph::GeometricGraph g(pts);
  if (overlay.edgeMode() == routing::EdgeMode::Visibility || pts.size() < 3) {
    for (int i = 0; i < ns; ++i) {
      for (int j : siteAdj[static_cast<std::size_t>(i)]) {
        if (j > i) g.addEdge(i, j);
      }
    }
    // Temporary endpoints link to everything they can see; the visibility
    // test runs endpoint-first, exactly as the serving engine (and the old
    // rebuild path) orients it.
    for (const int endpoint : {fromIdx, toIdx}) {
      if (endpoint < ns) continue;
      for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
        if (i == endpoint) continue;
        if (vis.visible(pts[static_cast<std::size_t>(endpoint)],
                        pts[static_cast<std::size_t>(i)])) {
          g.addEdge(endpoint, i);
        }
      }
    }
  } else {
    const delaunay::DelaunayTriangulation dt(pts);
    for (const auto& [u, v] : dt.edges()) {
      if (vis.visible(pts[static_cast<std::size_t>(u)], pts[static_cast<std::size_t>(v)])) {
        g.addEdge(u, v);
      }
    }
    for (const auto& [u, v] : overlay.backboneEdges()) g.addEdge(u, v);
  }

  const auto tree = graph::dijkstra(g, fromIdx, toIdx);
  ans.distance = tree.dist[static_cast<std::size_t>(toIdx)];
  const auto path = tree.pathTo(toIdx);
  if (path.empty() && fromIdx != toIdx) return ans;
  ans.reachable = true;
  for (graph::NodeId v : path) {
    if (v == fromIdx || v == toIdx) continue;
    if (v < ns) ans.waypoints.push_back(overlay.sites()[static_cast<std::size_t>(v)]);
  }
  return ans;
}

}  // namespace hybrid::testkit
