// E18 — routing query throughput, as JSON.
//
// Measures the query serving engine end to end against the serving path
// from before it, testkit::referenceOverlayQuery (rebuild the query graph
// of all sites + the two endpoints per query and run one dijkstra() over
// it), versus the incremental engine (precomputed site-pair hub labels,
// endpoint connection only, one hub-bucket scan, zero steady-state
// allocations). The engine side is timed over bench::kBatchPasses passes
// of its queries per sample (one pass lasts only milliseconds) and
// reported per pass. Also sweeps routeBatch() thread counts on full hybrid
// route() queries. Every timed run is preceded by an untimed warm-up so
// both sides are measured in steady state; best-of-3 guards against
// machine noise.
//
// Usage: e18_route_throughput [--smoke | --gate] [--metrics FILE]
// (bench::BenchArgs). --smoke is one small deployment with threads {1, 2};
// --gate one config sized so every timed region is tens of milliseconds
// (stable ratios) while the whole run stays under a few seconds.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "routing/overlay_graph.hpp"
#include "testkit/oracles.hpp"

using namespace hybrid;

namespace {

std::vector<std::pair<geom::Vec2, geom::Vec2>> overlayQueryPoints(
    const core::HybridNetwork& net, std::size_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net.ldel().numNodes()) - 1);
  std::vector<std::pair<geom::Vec2, geom::Vec2>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({net.ldel().position(pick(rng)), net.ldel().position(pick(rng))});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, "e18_route_throughput");
  const bool smoke = args.smoke;
  const bool gate = args.gate;

  const std::vector<std::size_t> sizes =
      smoke  ? std::vector<std::size_t>{250}
      : gate ? std::vector<std::size_t>{500}
             : std::vector<std::size_t>{500, 1000, 2000, 4000};
  // The gate sweeps {1, 2, 8} so the 8t/1t thread-scaling ratio
  // (speedup_vs_serial.t8) is among the gated gauges; smoke stays tiny.
  const std::vector<int> threadCounts = smoke  ? std::vector<int>{1, 2}
                                        : gate ? std::vector<int>{1, 2, 8}
                                               : std::vector<int>{1, 2, 4, 8};
  const std::size_t overlayQueries = smoke ? 200 : gate ? 500 : 2000;
  const std::size_t routeQueries = smoke ? 100 : gate ? 400 : 1000;

  std::printf("{\n");
  std::printf("  \"experiment\": \"e18_route_throughput\",\n");
  std::printf("  \"workload\": \"overlay: random endpoint pairs on the visibility overlay; "
              "batch: random s-t hybrid route() pairs\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"configs\": [\n");
  bool firstCfg = true;
  for (const std::size_t n : sizes) {
    auto sc = bench::convexHolesScenario(n, 42 + static_cast<unsigned>(n));
    core::HybridNetwork net(sc.points);
    const auto router = net.makeRouter(
        {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
    const routing::OverlayGraph& overlay = router->overlay();

    // --- Overlay query serving: legacy rebuild vs incremental engine. ---
    const auto qpts = overlayQueryPoints(net, overlayQueries, 7 + static_cast<unsigned>(n));
    volatile double sink = 0.0;  // keep the solves observable

    const double legacySecs = bench::bestSeconds([&] {
      double acc = 0.0;
      for (const auto& [a, b] : qpts) {
        acc += testkit::referenceOverlayQuery(overlay, a, b).distance;
      }
      sink = acc;
    });

    routing::OverlayQueryWorkspace ws;
    routing::OverlayRoute route;
    const double engineSampleSecs = bench::bestSeconds([&] {
      double acc = 0.0;
      for (int p = 0; p < bench::kBatchPasses; ++p) {
        for (const auto& [a, b] : qpts) {
          overlay.query(a, b, ws, route);
          acc += route.distance;
        }
      }
      sink = acc;
    });
    const double engineSecs = engineSampleSecs / bench::kBatchPasses;
    const double legacyQps = bench::ratio(static_cast<double>(qpts.size()), legacySecs);
    const double engineQps = bench::ratio(static_cast<double>(qpts.size()), engineSecs);

    // --- Batched full route() serving across threads. ---
    std::mt19937 rng(99 + static_cast<unsigned>(n));
    std::uniform_int_distribution<int> pick(0, static_cast<int>(net.ldel().numNodes()) - 1);
    std::vector<routing::RoutePair> pairs;
    pairs.reserve(routeQueries);
    for (std::size_t i = 0; i < routeQueries; ++i) pairs.push_back({pick(rng), pick(rng)});

    if (!firstCfg) std::printf(",\n");
    firstCfg = false;
    std::printf("    {\"n\": %zu, \"holes\": %zu, \"sites\": %zu,\n", net.ldel().numNodes(),
                net.holes().holes.size(), overlay.sites().size());
    const double overlaySpeedup = bench::ratio(engineQps, legacyQps);
    std::printf("     \"overlay\": {\"queries\": %zu,\n", qpts.size());
    std::printf("       \"legacyRebuild\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f},\n",
                legacySecs, legacyQps);
    std::printf("       \"engine\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                "\"speedup\": %.2f}},\n",
                engineSecs, engineQps, overlaySpeedup);
    HYBRID_OBS_STMT(if (obs::enabled()) {
      const std::string key = ".n" + std::to_string(n);
      auto& reg = obs::Registry::global();
      reg.gauge("bench.e18.overlay.engine.queries_per_s" + key).set(engineQps);
      // Machine-independent ratio: this is what the CI bench gate checks.
      reg.gauge("bench.e18.overlay.speedup" + key).set(overlaySpeedup);
    });
    std::printf("     \"routeBatch\": [\n");
    double serialQps = 0.0;
    bool firstT = true;
    for (const int t : threadCounts) {
      const double secs = bench::batchSeconds(*router, pairs, t);
      const double qps = bench::ratio(static_cast<double>(pairs.size()), secs);
      if (t == 1) serialQps = qps;
      if (!firstT) std::printf(",\n");
      firstT = false;
      const double batchSpeedup = bench::ratio(qps, serialQps);
      std::printf("       {\"threads\": %d, \"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                  "\"speedupVsSerial\": %.2f}",
                  t, secs, qps, batchSpeedup);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key = ".n" + std::to_string(n) + ".t" + std::to_string(t);
        auto& reg = obs::Registry::global();
        reg.gauge("bench.e18.route_batch.queries_per_s" + key).set(qps);
        if (t > 1) {
          reg.gauge("bench.e18.route_batch.speedup_vs_serial" + key).set(batchSpeedup);
        }
      });
    }
    std::printf("\n     ]}");
  }
  std::printf("\n  ]\n}\n");

  return bench::writeMetrics(args);
}
