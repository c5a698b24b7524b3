// E21 — bounding-box hole abstraction vs convex hulls, as JSON.
//
// Two corpora per size: "disjoint" (the convex-holes city-block layout the
// paper assumes, hulls pairwise disjoint) and "interlocked" (a U-shaped
// building swallowing a block — the hull-intersecting family where the §4
// protocol loses its guarantees and the hull router leans on A* splices).
// On each deployment the convex-hull router and the bbox-mode router
// (arXiv:1810.05453 abstraction, PR 9) serve the same query set: overlay
// sizes, fallback counts, stretch, and routeBatch throughput across thread
// counts.
//
// Before timing, acceptance is checked (exit 3 on violation): on the
// interlocked corpus the bbox router must deliver every query with ZERO
// fallbacks and stay within the scaled competitive bound; on the disjoint
// corpus Auto must resolve to hulls and route identically to the explicit
// hulls mode.
//
// Usage: e21_bbox_overlay [--smoke | --gate] [--metrics FILE]
// (bench::BenchArgs). --smoke is n = 250 with threads {1, 2}; --gate is
// n = 500 with threads {1, 2, 8}, whose scaling ratios land in
// bench/baselines/e21.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "abstraction/bbox_overlay.hpp"
#include "bench_util.hpp"
#include "routing/hybrid_router.hpp"
#include "scenario/shapes.hpp"

using namespace hybrid;

namespace {

/// The "U swallowing a block" family scaled to ~n nodes: the block's hull
/// sits inside the U's hull, so the hulls intersect on every seed.
scenario::Scenario interlockedScenario(std::size_t n, unsigned seed) {
  scenario::ScenarioParams p = scenario::paramsForNodeCount(n + n / 3, seed);
  const double side = p.width;
  p.obstacles.push_back(scenario::uShapeObstacle({0.46 * side, 0.46 * side}, 0.38 * side,
                                                 0.35 * side, 0.062 * side));
  p.obstacles.push_back(scenario::rectangleObstacle({0.40 * side, 0.42 * side},
                                                    {0.52 * side, 0.52 * side}));
  p.obstacles.push_back(scenario::regularPolygonObstacle(
      {0.80 * side, 0.22 * side}, 0.08 * side, 6, 0.4));
  return scenario::makeScenario(p);
}

struct RouteEval {
  int fallbacks = 0;
  int undelivered = 0;
  double stretchSum = 0.0;
  double stretchMax = 0.0;
  int stretchCount = 0;
  double mean() const { return stretchCount > 0 ? stretchSum / stretchCount : 0.0; }
};

RouteEval evaluate(core::HybridNetwork& net, const routing::Router& router,
                   const std::vector<routing::RoutePair>& pairs) {
  RouteEval e;
  for (const auto& [s, t] : pairs) {
    const auto r = router.route(s, t);
    if (!r.delivered) {
      ++e.undelivered;
      continue;
    }
    e.fallbacks += r.fallbacks;
    if (r.fallbacks == 0) {
      const double st = net.stretch(r, s, t);
      e.stretchSum += st;
      e.stretchMax = std::max(e.stretchMax, st);
      ++e.stretchCount;
    }
  }
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, "e21_bbox_overlay");
  const bool smoke = args.smoke;
  const bool gate = args.gate;

  const std::vector<std::size_t> sizes =
      smoke  ? std::vector<std::size_t>{250}
      : gate ? std::vector<std::size_t>{500}
             : std::vector<std::size_t>{500, 1000};
  const std::vector<int> threadCounts = smoke  ? std::vector<int>{1, 2}
                                        : gate ? std::vector<int>{1, 2, 8}
                                               : std::vector<int>{1, 2, 4, 8};
  const std::size_t routeQueries = smoke ? 150 : gate ? 400 : 600;

  std::printf("{\n");
  std::printf("  \"experiment\": \"e21_bbox_overlay\",\n");
  std::printf("  \"workload\": \"random s-t pairs on disjoint-hull and interlocked-hull "
              "deployments: convex-hull vs bounding-box abstraction, routeBatch across "
              "thread counts\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"bounds\": {\"bboxVisibility\": %.2f, \"bboxDelaunay\": %.2f},\n",
              abstraction::kBBoxVisibilityBound, abstraction::kBBoxDelaunayBound);
  std::printf("  \"configs\": [\n");
  bool firstCfg = true;
  for (const std::size_t n : sizes) {
    for (const bool interlocked : {false, true}) {
      const char* corpus = interlocked ? "interlocked" : "disjoint";
      auto sc = interlocked
                    ? interlockedScenario(n, 171 + static_cast<unsigned>(n))
                    : bench::convexHolesScenario(n, 42 + static_cast<unsigned>(n));
      core::HybridNetwork net(sc.points);
      const auto& g = net.ldel();

      const routing::HybridOptions hullOpts{.sites = routing::SiteMode::HullNodes,
                                            .edges = routing::EdgeMode::Visibility,
                                            .abstraction = routing::AbstractionMode::Hulls};
      routing::HybridOptions bboxOpts = hullOpts;
      bboxOpts.abstraction = routing::AbstractionMode::BBox;
      routing::HybridOptions autoOpts = hullOpts;
      autoOpts.abstraction = routing::AbstractionMode::Auto;

      const auto hb0 = std::chrono::steady_clock::now();
      const auto hulls = net.makeRouter(hullOpts);
      const auto hb1 = std::chrono::steady_clock::now();
      const auto bbox = net.makeRouter(bboxOpts);
      const auto hb2 = std::chrono::steady_clock::now();
      const auto autoRouter = net.makeRouter(autoOpts);

      const auto groups = abstraction::buildBBoxOverlay(g, net.holes(), net.abstractions());

      std::mt19937 rng(99 + static_cast<unsigned>(n) + (interlocked ? 1 : 0));
      std::uniform_int_distribution<int> pick(0, static_cast<int>(g.numNodes()) - 1);
      std::vector<routing::RoutePair> pairs;
      pairs.reserve(routeQueries);
      while (pairs.size() < routeQueries) {
        const int s = pick(rng);
        const int t = pick(rng);
        if (s != t) pairs.push_back({s, t});
      }

      // --- Acceptance (not the timed region).
      const RouteEval he = evaluate(net, *hulls, pairs);
      const RouteEval be = evaluate(net, *bbox, pairs);
      if (be.undelivered > 0) {
        std::fprintf(stderr, "e21_bbox_overlay: bbox router failed to deliver %d/%zu on "
                             "%s n=%zu\n",
                     be.undelivered, pairs.size(), corpus, n);
        return 3;
      }
      if (interlocked) {
        if (!bbox->usesBBox() || !autoRouter->usesBBox()) {
          std::fprintf(stderr, "e21_bbox_overlay: interlocked corpus did not engage the "
                               "bbox abstraction (n=%zu)\n", n);
          return 3;
        }
        if (be.fallbacks != 0) {
          std::fprintf(stderr, "e21_bbox_overlay: bbox mode needed %d A* fallbacks on the "
                               "interlocked corpus (n=%zu); expected zero\n",
                       be.fallbacks, n);
          return 3;
        }
        if (be.stretchMax > abstraction::kBBoxVisibilityBound) {
          std::fprintf(stderr, "e21_bbox_overlay: bbox stretch %.3f exceeds the scaled "
                               "bound %.3f (n=%zu)\n",
                       be.stretchMax, abstraction::kBBoxVisibilityBound, n);
          return 3;
        }
      } else {
        // Even the city-block layout usually has a pair of *touching*
        // incidental hulls somewhere, so drive the Auto acceptance from
        // ground truth: Auto must agree with the pairwise hull scan, and
        // whenever it resolves to hulls it must route identically to the
        // explicit mode.
        const bool expectBBox = abstraction::anyHullsIntersect(net.abstractions());
        if (autoRouter->usesBBox() != expectBBox) {
          std::fprintf(stderr, "e21_bbox_overlay: Auto resolution disagrees with "
                               "the pairwise hull scan on the disjoint corpus (n=%zu)\n", n);
          return 3;
        }
        if (!expectBBox) {
          for (const auto& [s, t] : pairs) {
            const auto rh = hulls->route(s, t);
            const auto ra = autoRouter->route(s, t);
            if (rh.path != ra.path || rh.delivered != ra.delivered) {
              std::fprintf(stderr, "e21_bbox_overlay: Auto diverges from hulls on the "
                                   "disjoint corpus at %d->%d (n=%zu)\n", s, t, n);
              return 3;
            }
          }
        }
      }

      if (!firstCfg) std::printf(",\n");
      firstCfg = false;
      const std::size_t hullSites = hulls->overlay().sites().size();
      const std::size_t bboxSites = bbox->overlay().sites().size();
      const double siteRatio =
          hullSites > 0 ? static_cast<double>(bboxSites) / static_cast<double>(hullSites)
                        : 0.0;
      std::printf("    {\"corpus\": \"%s\", \"n\": %zu, \"holes\": %zu, "
                  "\"hullsDisjoint\": %s,\n",
                  corpus, g.numNodes(), net.holes().holes.size(),
                  net.convexHullsDisjoint() ? "true" : "false");
      std::printf("     \"overlay\": {\"hullSites\": %zu, \"bboxSites\": %zu, "
                  "\"bboxGroups\": %zu, \"siteRatio\": %.3f,\n",
                  hullSites, bboxSites, groups.size(), siteRatio);
      std::printf("                 \"hullBuildSeconds\": %.3f, \"bboxBuildSeconds\": "
                  "%.3f},\n",
                  bench::seconds(hb0, hb1), bench::seconds(hb1, hb2));
      std::printf("     \"hulls\": {\"fallbacks\": %d, \"meanStretch\": %.3f, "
                  "\"maxStretch\": %.3f},\n",
                  he.fallbacks, he.mean(), he.stretchMax);
      std::printf("     \"bbox\": {\"fallbacks\": %d, \"meanStretch\": %.3f, "
                  "\"maxStretch\": %.3f},\n",
                  be.fallbacks, be.mean(), be.stretchMax);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key = std::string(".") + corpus + ".n" + std::to_string(n);
        auto& reg = obs::Registry::global();
        reg.gauge("bench.e21.overlay.hull_sites" + key).set(static_cast<double>(hullSites));
        reg.gauge("bench.e21.overlay.bbox_sites" + key).set(static_cast<double>(bboxSites));
        reg.gauge("bench.e21.overlay.site_ratio" + key).set(siteRatio);
        reg.gauge("bench.e21.hulls.fallbacks" + key).set(he.fallbacks);
        reg.gauge("bench.e21.bbox.fallbacks" + key).set(be.fallbacks);
        reg.gauge("bench.e21.hulls.mean_stretch" + key).set(he.mean());
        reg.gauge("bench.e21.bbox.mean_stretch" + key).set(be.mean());
      });

      // --- Timed sweep: both abstractions serve the same batch at each
      // thread count; each side's scaling ratio is against its own
      // 1-thread run.
      std::printf("     \"routeBatch\": [\n");
      double hullSerialQps = 0.0;
      double bboxSerialQps = 0.0;
      bool firstT = true;
      for (const int t : threadCounts) {
        const double hullSecs = bench::batchSeconds(*hulls, pairs, t);
        const double bboxSecs = bench::batchSeconds(*bbox, pairs, t);
        const double hullQps = bench::ratio(static_cast<double>(pairs.size()), hullSecs);
        const double bboxQps = bench::ratio(static_cast<double>(pairs.size()), bboxSecs);
        if (t == 1) {
          hullSerialQps = hullQps;
          bboxSerialQps = bboxQps;
        }
        const double hullSpeedup = bench::ratio(hullQps, hullSerialQps);
        const double bboxSpeedup = bench::ratio(bboxQps, bboxSerialQps);
        if (!firstT) std::printf(",\n");
        firstT = false;
        std::printf("       {\"threads\": %d,\n", t);
        std::printf("        \"hulls\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                    "\"speedupVs1Thread\": %.2f},\n",
                    hullSecs, hullQps, hullSpeedup);
        std::printf("        \"bbox\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                    "\"speedupVs1Thread\": %.2f}}",
                    bboxSecs, bboxQps, bboxSpeedup);
        HYBRID_OBS_STMT(if (obs::enabled()) {
          const std::string key = std::string(".") + corpus + ".n" + std::to_string(n) +
                                  ".t" + std::to_string(t);
          auto& reg = obs::Registry::global();
          reg.gauge("bench.e21.hulls.queries_per_s" + key).set(hullQps);
          reg.gauge("bench.e21.bbox.queries_per_s" + key).set(bboxQps);
          if (t > 1) {
            // Machine-independent scaling ratios: what the CI bench gate
            // checks (--filter speedup).
            reg.gauge("bench.e21.hulls.speedup_vs_1thread" + key).set(hullSpeedup);
            reg.gauge("bench.e21.bbox.speedup_vs_1thread" + key).set(bboxSpeedup);
          }
        });
      }
      std::printf("\n     ]}");
    }
  }
  std::printf("\n  ]\n}\n");

  return bench::writeMetrics(args);
}
