// E20 — stateless per-node label forwarding vs the centralized overlay
// engine, as JSON.
//
// The centralized engine answers a query from shared serving state (the
// overlay site table plus per-thread workspaces); the stateless router
// walks hop by hop using only the current node's immutable label view, the
// architecture where any node of a serving tier can answer any hop from
// its own O(polylog) slab. This bench builds both over the same deployment
// and sweeps routeBatch() thread counts on identical query pair sets:
// throughput scaling (speedup vs the 1-thread run of the same router),
// per-node label bytes, and the stretch the centralized (competitive,
// hull-detouring) routes pay over the stateless shortest-path walks.
//
// Before timing, the stateless walks are cross-checked against the central
// hub-label oracle: every walked path must realize the exact oracle
// distance, and the batch must be bit-identical to the serial loop at
// every swept thread count (exit 3 on any mismatch).
//
// Usage: e20_stateless_forwarding [--smoke | --gate] [--metrics FILE]
// (bench::BenchArgs). --smoke is n = 250 with threads {1, 2}; --gate is
// n = 500 with threads {1, 2, 8}, whose scaling ratios land in
// bench/baselines/e20.json.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "graph/csr.hpp"
#include "routing/hub_labels.hpp"
#include "routing/stateless_router.hpp"

using namespace hybrid;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, "e20_stateless_forwarding");
  const bool smoke = args.smoke;
  const bool gate = args.gate;

  const std::vector<std::size_t> sizes =
      smoke  ? std::vector<std::size_t>{250}
      : gate ? std::vector<std::size_t>{500}
             : std::vector<std::size_t>{500, 1000, 2000};
  // The gate sweeps {1, 2, 8} so the 8t/1t scaling ratio
  // (speedup_vs_1thread.t8) is among the gated gauges; smoke stays tiny.
  const std::vector<int> threadCounts = smoke  ? std::vector<int>{1, 2}
                                        : gate ? std::vector<int>{1, 2, 8}
                                               : std::vector<int>{1, 2, 4, 8};
  const std::size_t routeQueries = smoke ? 150 : gate ? 400 : 800;

  std::printf("{\n");
  std::printf("  \"experiment\": \"e20_stateless_forwarding\",\n");
  std::printf("  \"workload\": \"random s-t pairs on convex-holes deployments: stateless "
              "per-node label forwarding vs the centralized hybrid serving engine, "
              "routeBatch across thread counts\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"configs\": [\n");
  bool firstCfg = true;
  for (const std::size_t n : sizes) {
    auto sc = bench::convexHolesScenario(n, 42 + static_cast<unsigned>(n));
    core::HybridNetwork net(sc.points);
    const auto centralized = net.makeRouter(
        {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
    const auto& g = net.ldel();

    const auto sb0 = std::chrono::steady_clock::now();
    const routing::StatelessRouter stateless(g, 1);
    const double labelBuildSecs = bench::seconds(sb0, std::chrono::steady_clock::now());

    std::mt19937 rng(99 + static_cast<unsigned>(n));
    std::uniform_int_distribution<int> pick(0, static_cast<int>(g.numNodes()) - 1);
    std::vector<routing::RoutePair> pairs;
    pairs.reserve(routeQueries);
    for (std::size_t i = 0; i < routeQueries; ++i) pairs.push_back({pick(rng), pick(rng)});

    // --- Parity: every stateless walk realizes the exact oracle distance,
    // and the batch is bit-identical to the serial loop at every swept
    // thread count. This is the acceptance check, not the timed region.
    routing::HubLabelOracle oracle;
    oracle.build(graph::buildCsr(g), 2);
    std::vector<routing::RouteResult> serialResults;
    serialResults.reserve(pairs.size());
    for (const auto& p : pairs) serialResults.push_back(stateless.route(p.source, p.target));
    double stretchSum = 0.0;
    long stretchCount = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& r = serialResults[i];
      const double want = oracle.distance(pairs[i].source, pairs[i].target);
      if (!r.delivered || std::isinf(want)) {
        if (r.delivered != !std::isinf(want)) {
          std::fprintf(stderr, "e20_stateless_forwarding: delivery mismatch at n=%zu "
                               "%d->%d\n",
                       n, pairs[i].source, pairs[i].target);
          return 3;
        }
        continue;
      }
      const double walked = g.pathLength(r.path);
      if (std::fabs(walked - want) > 1e-9 * std::max(1.0, want)) {
        std::fprintf(stderr, "e20_stateless_forwarding: walk/oracle mismatch at n=%zu "
                             "%d->%d: %.17g vs %.17g\n",
                     n, pairs[i].source, pairs[i].target, walked, want);
        return 3;
      }
      // Centralized competitive routes may detour around hulls; their
      // length over the stateless shortest walk is the stretch paid.
      const auto c = centralized->route(pairs[i].source, pairs[i].target);
      if (c.delivered && walked > 0.0) {
        stretchSum += g.pathLength(c.path) / walked;
        ++stretchCount;
      }
    }
    for (const int t : threadCounts) {
      const auto batch = stateless.routeBatch(pairs, t);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].path != serialResults[i].path ||
            batch[i].delivered != serialResults[i].delivered) {
          std::fprintf(stderr, "e20_stateless_forwarding: routeBatch diverges from the "
                               "serial loop at n=%zu t=%d pair=%zu\n",
                       n, t, i);
          return 3;
        }
      }
    }
    const double meanStretch = stretchCount > 0 ? stretchSum / stretchCount : 0.0;

    if (!firstCfg) std::printf(",\n");
    firstCfg = false;
    const auto& labels = stateless.labels();
    std::printf("    {\"n\": %zu, \"holes\": %zu,\n", g.numNodes(), net.holes().holes.size());
    std::printf("     \"labels\": {\"buildSeconds\": %.3f, \"bytes\": %zu, "
                "\"bytesPerNode\": %.0f, \"maxLabel\": %zu},\n",
                labelBuildSecs, labels.labelBytes(), labels.bytesPerNode(),
                labels.maxLabelSize());
    std::printf("     \"centralizedStretchOverStateless\": %.3f,\n", meanStretch);
    HYBRID_OBS_STMT(if (obs::enabled()) {
      const std::string key = ".n" + std::to_string(n);
      auto& reg = obs::Registry::global();
      reg.gauge("bench.e20.fwd.bytes_per_node" + key).set(labels.bytesPerNode());
      reg.gauge("bench.e20.fwd.centralized_stretch" + key).set(meanStretch);
    });

    // --- Timed sweep: both routers serve the same batch at each thread
    // count; each side's scaling ratio is against its own 1-thread run.
    std::printf("     \"routeBatch\": [\n");
    double fwdSerialQps = 0.0;
    double centralSerialQps = 0.0;
    bool firstT = true;
    for (const int t : threadCounts) {
      const double fwdSecs = bench::batchSeconds(stateless, pairs, t);
      const double centralSecs = bench::batchSeconds(*centralized, pairs, t);
      const double fwdQps = bench::ratio(static_cast<double>(pairs.size()), fwdSecs);
      const double centralQps = bench::ratio(static_cast<double>(pairs.size()), centralSecs);
      if (t == 1) {
        fwdSerialQps = fwdQps;
        centralSerialQps = centralQps;
      }
      const double fwdSpeedup = bench::ratio(fwdQps, fwdSerialQps);
      const double centralSpeedup = bench::ratio(centralQps, centralSerialQps);
      if (!firstT) std::printf(",\n");
      firstT = false;
      std::printf("       {\"threads\": %d,\n", t);
      std::printf("        \"stateless\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                  "\"speedupVs1Thread\": %.2f},\n",
                  fwdSecs, fwdQps, fwdSpeedup);
      std::printf("        \"centralized\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                  "\"speedupVs1Thread\": %.2f}}",
                  centralSecs, centralQps, centralSpeedup);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key = ".n" + std::to_string(n) + ".t" + std::to_string(t);
        auto& reg = obs::Registry::global();
        reg.gauge("bench.e20.fwd.queries_per_s" + key).set(fwdQps);
        reg.gauge("bench.e20.centralized.queries_per_s" + key).set(centralQps);
        if (t > 1) {
          // Machine-independent scaling ratios: what the CI bench gate
          // checks (--filter speedup).
          reg.gauge("bench.e20.fwd.speedup_vs_1thread" + key).set(fwdSpeedup);
          reg.gauge("bench.e20.centralized.speedup_vs_1thread" + key).set(centralSpeedup);
        }
      });
    }
    std::printf("\n     ]}");
  }
  std::printf("\n  ]\n}\n");

  return bench::writeMetrics(args);
}
