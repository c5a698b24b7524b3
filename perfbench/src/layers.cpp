#include "layers.hpp"

#include <cstdio>
#include <cmath>
#include <map>
#include <set>

#include "abstraction/dominating_set.hpp"
#include "obs/metrics.hpp"
#include "protocols/dominating_set_protocol.hpp"
#include "protocols/reliable.hpp"
#include "scenario/churn.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace hy = hybrid;

namespace {

double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : hy::obs::Registry::global().counterValues()) out[name] = v;
  return out;
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// The pipeline HybridNetwork's constructor runs, one stage per public
/// call, each timed. Heap-allocated and never moved: the router keeps
/// references into the earlier stages.
struct StagedBuild {
  hy::delaunay::LocalizedDelaunay ldel;
  hy::holes::HoleAnalysis holes;
  std::vector<hy::abstraction::HoleAbstraction> abstractions;
  std::unique_ptr<hy::routing::PlanarSubdivision> subdivision;
  std::unique_ptr<hy::routing::HybridRouter> router;
  double ms[5] = {};  ///< delaunay, holes, abstraction, subdivision, router.
  double totalMs() const { return ms[0] + ms[1] + ms[2] + ms[3] + ms[4]; }
};

std::unique_ptr<StagedBuild> stagedBuild(const std::vector<hy::geom::Vec2>& points,
                                         const hy::serve::ServiceOptions& opts,
                                         const hy::routing::HybridRouter* donor,
                                         std::uint64_t id) {
  auto b = std::make_unique<StagedBuild>();
  const double r = opts.ldel.radius;
  trace::Span build("rebuild", id);
  auto t0 = Clock::now();
  {
    trace::Span s("delaunay.build", id);
    b->ldel = hy::delaunay::buildLocalizedDelaunay(points, opts.ldel);
  }
  b->ms[0] = msSince(t0);
  t0 = Clock::now();
  {
    trace::Span s("holes.detect", id);
    b->holes = hy::holes::detectHoles(b->ldel.graph, r);
  }
  b->ms[1] = msSince(t0);
  t0 = Clock::now();
  {
    trace::Span s("abstraction.build", id);
    b->abstractions = hy::abstraction::buildAbstractions(b->ldel.graph, b->holes, r);
  }
  b->ms[2] = msSince(t0);
  t0 = Clock::now();
  {
    trace::Span s("routing.subdivision", id);
    b->subdivision = std::make_unique<hy::routing::PlanarSubdivision>(b->ldel.graph, b->holes, r);
  }
  b->ms[3] = msSince(t0);
  t0 = Clock::now();
  {
    trace::Span s("routing.router_build", id);
    b->router = std::make_unique<hy::routing::HybridRouter>(
        b->ldel.graph, b->holes, b->abstractions, *b->subdivision, opts.router, donor);
  }
  b->ms[4] = msSince(t0);
  return b;
}

}  // namespace

void probeRouting(const hy::core::HybridNetwork& net,
                  const std::vector<hy::routing::RoutePair>& pairs, Metrics& out,
                  Tally& tally) {
  const auto& router = net.router();
  const auto& g = net.ldel();

  // Pass 1: the router alone, so the overlay counters below count exactly
  // the overlay work the routes did.
  std::vector<double> routeUs;
  std::vector<hy::routing::RouteResult> results;
  results.reserve(pairs.size());
  const auto before = counters();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    trace::Span q("probe.query", i);
    trace::Span s("routing.route", i);
    const auto t0 = Clock::now();
    results.push_back(router.route(pairs[i].source, pairs[i].target));
    routeUs.push_back(usSince(t0));
  }
  auto after = counters();
  const auto delta = [&](const char* name) {
    return static_cast<double>(after[name] - (before.count(name) ? before.at(name) : 0));
  };

  // Pass 2: the layers a route is made of, each called on its own.
  const hy::routing::ChewRouter chew(g, net.subdivision());
  std::vector<double> locateUs, overlayUs, chewUs;
  long reachable = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto ps = g.position(pairs[i].source);
    const auto pt = g.position(pairs[i].target);
    trace::Span q("probe.layers", i);
    {
      trace::Span s("routing.locate", i);
      const auto t0 = Clock::now();
      reachable += router.locate(ps).has_value() + router.locate(pt).has_value();
      locateUs.push_back(usSince(t0));
    }
    {
      trace::Span s("routing.overlay_query", i);
      const auto t0 = Clock::now();
      reachable += router.overlay().waypointsWithDistance(ps, pt).reachable;
      overlayUs.push_back(usSince(t0));
    }
    {
      trace::Span s("routing.chew", i);
      const auto t0 = Clock::now();
      reachable += chew.route(pairs[i].source, pairs[i].target).delivered;
      chewUs.push_back(usSince(t0));
    }
  }
  (void)reachable;

  // Counts and quality, outside every timed region.
  std::vector<double> hops, bayExtremes, stretch;
  double cases[6] = {};
  long fallbacks = 0;
  long withFallback = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& r = results[i];
    tally.add(validRoute(g, r, pairs[i]));
    hops.push_back(static_cast<double>(r.hops()));
    bayExtremes.push_back(r.bayExtremePoints);
    cases[std::clamp(r.protocolCase, 0, 5)] += 1.0;
    fallbacks += r.fallbacks;
    withFallback += r.fallbacks > 0 ? 1 : 0;
    if (r.delivered) stretch.push_back(net.stretch(r, pairs[i].source, pairs[i].target));
  }
  const double n = static_cast<double>(pairs.size());
  out.set("routing.route_us_p50", quantile(routeUs, 0.5), "us");
  out.set("routing.route_us_p99", quantile(routeUs, 0.99), "us");
  out.set("routing.overlay_query_us_p50", quantile(overlayUs, 0.5), "us");
  out.set("routing.overlay_query_us_p99", quantile(overlayUs, 0.99), "us");
  out.set("routing.chew_us_p50", quantile(chewUs, 0.5), "us");
  out.set("routing.locate_us_p50", quantile(locateUs, 0.5), "us");
  out.set("routing.hops_mean", mean(hops), "count");
  for (int c = 0; c < 6; ++c) {
    out.set("routing.case_share.c" + std::to_string(c), share(cases[c], n), "ratio");
  }
  out.set("routing.bay_extreme_mean", mean(bayExtremes), "count");
  out.set("routing.fallbacks", static_cast<double>(fallbacks), "count");
  out.set("routing.fallback_share", share(static_cast<double>(withFallback), n), "ratio");
  out.set("routing.stretch_mean", mean(stretch), "ratio");
  out.set("routing.stretch_p99", quantile(stretch, 0.99), "ratio");

  const double queries = delta("overlay.query.incremental") + delta("overlay.query.rebuild") +
                         delta("overlay.query.direct");
  out.set("overlay.query.rebuild_share", share(delta("overlay.query.rebuild"), queries),
          "ratio");
  out.set("overlay.query.direct_share", share(delta("overlay.query.direct"), queries),
          "ratio");
  out.set("overlay.vis_tests_per_query", share(delta("overlay.vis_tests.run"), queries),
          "count");
  out.set("overlay.table.fallbacks", delta("overlay.table.fallbacks"), "count");
  out.set("overlay.abstraction.fallbacks", delta("overlay.abstraction.fallbacks"), "count");
}

EpochRecord applyEpoch(hy::serve::RouteService& service, Clock::time_point origin,
                       double dueMs, std::uint64_t epochId) {
  EpochRecord rec;
  rec.dueMs = dueMs;
  {
    trace::Span span("serve.applyUpdates", epochId);
    rec.startMs = msSince(origin);
    rec.stats = service.applyUpdates();
    rec.endMs = msSince(origin);
  }
  if (trace::enabled() && rec.stats.build != hy::serve::EpochBuild::Reused) {
    rec.points = service.snapshot()->scenario.points;
  }
  return rec;
}

void serveLayerMetrics(const std::vector<EpochChain>& chains, Metrics& out) {
  std::vector<double> swapMs, waitMs, changedRings;
  double tiers[3] = {};  // reused, incremental, full
  double epochs = 0.0, arrived = 0.0, rejected = 0.0;
  for (const auto& chain : chains) {
    for (const auto& e : chain.epochs) {
      swapMs.push_back(e.endMs - e.startMs);
      waitMs.push_back(e.startMs - e.dueMs);
      tiers[static_cast<int>(e.stats.build)] += 1.0;
      epochs += 1.0;
      arrived += e.stats.arrived;
      rejected += e.stats.rejected;
      if (e.stats.build != hy::serve::EpochBuild::Reused) {
        changedRings.push_back(e.stats.changedRings);
      }
    }
  }
  out.set("serve.swap_ms_p50", quantile(swapMs, 0.5), "ms");
  out.set("serve.swap_ms_p90", quantile(swapMs, 0.9), "ms");
  out.set("serve.queue_wait_ms_p90", quantile(waitMs, 0.9), "ms");
  out.set("serve.epochs_reused_share", share(tiers[0], epochs), "ratio");
  out.set("serve.epochs_incremental_share", share(tiers[1], epochs), "ratio");
  out.set("serve.epochs_full_share", share(tiers[2], epochs), "ratio");
  out.set("serve.changed_rings_mean", mean(changedRings), "count");
  out.set("serve.updates_rejected_share", share(rejected, arrived), "ratio");

  // Stage-by-stage rebuild of the same point sets, chained through the
  // same overlay donors the service used.
  std::vector<double> stage[5];
  std::vector<double> otherMs;
  int tierMismatches = 0;
  for (const auto& chain : chains) {
    auto prev = stagedBuild(chain.initialPoints, chain.options, nullptr, 0);
    for (int k = 0; k < 5; ++k) stage[k].push_back(prev->ms[k]);
    for (const auto& e : chain.epochs) {
      if (e.stats.build == hy::serve::EpochBuild::Reused) continue;
      auto next = stagedBuild(e.points, chain.options, prev->router.get(), e.stats.epoch);
      const bool incremental = e.stats.build == hy::serve::EpochBuild::Incremental;
      if (next->router->adoptedDonorOverlay() != incremental) ++tierMismatches;
      for (int k = 0; k < 5; ++k) stage[k].push_back(next->ms[k]);
      otherMs.push_back((e.endMs - e.startMs) - next->totalMs());
      prev = std::move(next);
    }
  }
  if (tierMismatches > 0) {
    std::fprintf(stderr, "perfbench: %d staged rebuilds took another tier than the service\n",
                 tierMismatches);
  }
  out.set("delaunay.build_ms", median(stage[0]), "ms");
  out.set("holes.detect_ms", median(stage[1]), "ms");
  out.set("abstraction.build_ms", median(stage[2]), "ms");
  out.set("routing.subdivision_ms", median(stage[3]), "ms");
  out.set("routing.router_build_ms", median(stage[4]), "ms");
  out.set("serve.other_ms", median(otherMs), "ms");
}

void pinMetrics(std::vector<double> pinUs, Metrics& out) {
  out.set("serve.pin_us_p99", quantile(pinUs, 0.99), "us");
}

bool matchesFreshBuild(const hy::serve::Snapshot& snap,
                       const hy::serve::ServiceOptions& options, std::uint64_t seed) {
  const hy::core::HybridNetwork fresh(snap.scenario.points, options.ldel, options.router,
                                      nullptr);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 32; ++i) {
    const auto p = randomPair(rng, snap.scenario.points.size());
    const auto served = snap.net->route(p.source, p.target);
    const auto want = fresh.route(p.source, p.target);
    if (served.path != want.path || served.delivered != want.delivered) {
      std::fprintf(stderr, "perfbench: epoch %llu diverges from a fresh build (%d->%d)\n",
                   static_cast<unsigned long long>(snap.epoch), p.source, p.target);
      return false;
    }
  }
  return true;
}

void probeServe(hy::serve::RouteService& service, std::uint64_t seed, int epochs,
                Metrics& out, Tally& tally) {
  const auto initial = service.snapshot();
  hy::scenario::ChurnParams churn;
  churn.seed = seed;
  churn.epochs = epochs;
  churn.updatesPerEpoch = 8;
  const auto batches = hy::scenario::makeChurnTrace(initial->scenario, churn);

  const auto origin = Clock::now();
  EpochChain chain{service.options(), initial->scenario.points, {}};
  std::vector<std::shared_ptr<const hy::serve::Snapshot>> sampled;
  for (const auto& batch : batches) {
    const double due = msSince(origin);
    service.enqueue(batch);
    chain.epochs.push_back(applyEpoch(service, origin, due, service.epoch() + 1));
    if (chain.epochs.size() % 4 == 0) sampled.push_back(service.snapshot());
  }
  std::vector<double> pinUs;
  for (int i = 0; i < 2000; ++i) {
    trace::Span s("serve.snapshot", static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    const auto pin = service.snapshot();
    pinUs.push_back(usSince(t0));
  }
  for (const auto& snap : sampled) {
    tally.add(matchesFreshBuild(*snap, service.options(), mixSeed(seed, snap->epoch)));
  }
  pinMetrics(std::move(pinUs), out);
  serveLayerMetrics({chain}, out);
}

LossyInputs lossyInputs(const hy::graph::GeometricGraph& udg,
                        const hy::core::HybridNetwork& oracle) {
  LossyInputs in;
  in.udg = &udg;
  in.radius = oracle.radius();
  for (const auto& h : oracle.holes().holes) in.rings.rings.push_back(h.ring);
  if (oracle.holes().outerBoundary.size() >= 3) {
    in.rings.rings.push_back(oracle.holes().outerBoundary);
  }
  for (const auto& a : oracle.abstractions()) {
    for (const auto& bay : a.bays) in.chains.push_back(bay.chain);
  }
  in.ldelEdges = oracle.ldel().edges();
  std::sort(in.ldelEdges.begin(), in.ldelEdges.end());

  hy::sim::Simulator s(udg);
  const auto ldel = hy::protocols::runLdelConstruction(s, in.radius, nullptr);
  in.isBoundary = ldel.isBoundary;
  hy::protocols::RingPipeline pipeline(s, in.rings, nullptr);
  in.ringResults = pipeline.run();
  return in;
}

PassResult lossyPass(const LossyInputs& in, std::uint64_t faultSeed, int simThreads,
                     std::uint64_t passId) {
  PassResult r;
  hy::sim::FaultConfig cfg;
  cfg.seed = faultSeed;
  cfg.adHocDrop = kPreprocessLoss;
  cfg.longRangeDrop = kPreprocessLoss;
  const hy::protocols::RetryPolicy retry;

  trace::Span pass("preprocess.pass", passId);
  const auto t0 = Clock::now();
  hy::sim::Simulator s(*in.udg, hy::sim::FaultPlan(cfg));
  s.setThreads(simThreads);

  auto t = Clock::now();
  hy::protocols::DistributedLdel ldel;
  {
    trace::Span span("protocols.ldel", passId);
    ldel = hy::protocols::runLdelConstruction(s, in.radius, &retry);
  }
  r.ldelMs = msSince(t);
  r.ldelRounds = ldel.rounds;
  r.retransmissions += ldel.retransmissions;

  t = Clock::now();
  std::vector<hy::protocols::RingResult> rings;
  {
    trace::Span span("protocols.rings", passId);
    hy::protocols::RingPipeline pipeline(s, in.rings, &retry);
    rings = pipeline.run();
    r.ringRounds = pipeline.rounds().total();
    r.retransmissions += pipeline.reliableStats().retransmissions;
  }
  r.ringsMs = msSince(t);

  t = Clock::now();
  std::vector<std::vector<int>> sets;
  {
    trace::Span span("protocols.ds", passId);
    hy::protocols::DominatingSetProtocol ds(s, in.chains, 1, &retry);
    r.dsRounds = ds.run();
    r.retransmissions += ds.reliableStats().retransmissions;
    for (std::size_t c = 0; c < ds.numChains(); ++c) sets.push_back(ds.dominatingSet(c));
  }
  r.dsMs = msSince(t);
  r.ms = msSince(t0);
  r.messages = s.totalMessages();
  r.dropped = s.totalDropped();
  r.effectiveThreads = s.effectiveThreads();

  // Correctness, outside the timed region: the lossy run must reproduce
  // the fault-free outputs exactly, and every set must dominate its chain.
  auto edges = ldel.graph.edges();
  std::sort(edges.begin(), edges.end());
  bool ok = edges == in.ldelEdges && ldel.isBoundary == in.isBoundary &&
            rings.size() == in.ringResults.size();
  for (std::size_t i = 0; ok && i < rings.size(); ++i) {
    const auto& a = rings[i];
    const auto& b = in.ringResults[i];
    // The turning angle is a float sum whose addition order depends on
    // delivery order, and the hull is compared as a node set.
    ok = a.leader == b.leader && a.size == b.size &&
         std::abs(a.turningAngle - b.turningAngle) <= 1e-9 &&
         std::set<int>(a.hull.begin(), a.hull.end()) == std::set<int>(b.hull.begin(), b.hull.end());
  }
  for (std::size_t c = 0; ok && c < in.chains.size(); ++c) {
    ok = hy::abstraction::dominatesChain(in.chains[c], sets[c]);
  }
  r.ok = ok;
  return r;
}

void passMetrics(const std::vector<PassResult>& passes, Metrics& out) {
  std::vector<double> ldelMs, ringsMs, dsMs, rl, rr, rd, msgs, dropped, retrans;
  double totalMsgs = 0.0, totalS = 0.0;
  int threads = 0;
  for (const auto& p : passes) {
    ldelMs.push_back(p.ldelMs);
    ringsMs.push_back(p.ringsMs);
    dsMs.push_back(p.dsMs);
    rl.push_back(p.ldelRounds);
    rr.push_back(p.ringRounds);
    rd.push_back(p.dsRounds);
    msgs.push_back(static_cast<double>(p.messages));
    dropped.push_back(static_cast<double>(p.dropped));
    retrans.push_back(static_cast<double>(p.retransmissions));
    totalMsgs += static_cast<double>(p.messages);
    totalS += p.ms / 1000.0;
    threads = std::max(threads, p.effectiveThreads);
  }
  out.set("protocols.ldel_ms", median(ldelMs), "ms");
  out.set("protocols.rings_ms", median(ringsMs), "ms");
  out.set("protocols.ds_ms", median(dsMs), "ms");
  out.set("sim.rounds.ldel", median(rl), "count");
  out.set("sim.rounds.rings", median(rr), "count");
  out.set("sim.rounds.ds", median(rd), "count");
  out.set("sim.messages", median(msgs), "count");
  out.set("sim.dropped", median(dropped), "count");
  out.set("sim.msgs_per_s", share(totalMsgs, totalS), "1/s");
  out.set("sim.effective_threads", threads, "count");
  out.set("arq.retransmissions", median(retrans), "count");
}

}  // namespace perfbench
