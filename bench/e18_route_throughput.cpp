// E18 — routing query throughput, as JSON.
//
// Measures the query serving engine end to end against a faithful replica
// of the pre-PR overlay serving path compiled into this binary: rebuild
// the query graph (all sites + the two endpoints) per query and run one
// dijkstra() over it, versus the incremental engine (precomputed site-pair
// table, endpoint connection only, workspace Dijkstra, zero steady-state
// allocations). Also sweeps routeBatch() thread counts on full hybrid
// route() queries. Every timed run is preceded by an untimed warm-up so
// both sides are measured in steady state; best-of-3 guards against
// machine noise.
//
// Usage: e18_route_throughput [--smoke | --gate] [--metrics FILE]
//   --smoke         tiny sweep (CI correctness check): one small deployment,
//                   threads {1, 2}.
//   --gate          mid-size sweep for the CI perf gate: one config sized so
//                   every timed region is tens of milliseconds (stable
//                   ratios) while the whole run stays under a few seconds.
//   --metrics FILE  record per-config throughput/speedup gauges and write an
//                   obs snapshot (consumed by the CI bench gate via
//                   tools/metrics_report --check).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "delaunay/triangulation.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "routing/overlay_graph.hpp"

using namespace hybrid;

namespace {

// ---------------------------------------------------------------------------
// Pre-PR reference: rebuild the overlay query graph per query from the
// overlay's public state and run one full Dijkstra over it (what
// OverlayGraph::waypoints() did before the incremental engine).
// ---------------------------------------------------------------------------

double legacyOverlayQuery(const routing::OverlayGraph& overlay, geom::Vec2 from,
                          geom::Vec2 to) {
  const auto& sitePos = overlay.sitePositions();
  const auto& vis = overlay.visibility();
  const int ns = static_cast<int>(sitePos.size());

  int fromSite = -1;
  int toSite = -1;
  for (int i = 0; i < ns; ++i) {
    if (sitePos[static_cast<std::size_t>(i)] == from) fromSite = i;
    if (sitePos[static_cast<std::size_t>(i)] == to) toSite = i;
  }
  std::vector<geom::Vec2> pts = sitePos;
  const int fromIdx = fromSite >= 0 ? fromSite : static_cast<int>(pts.size());
  if (fromSite < 0) pts.push_back(from);
  int toIdx = toSite >= 0 ? toSite : static_cast<int>(pts.size());
  if (toSite < 0 && !(from == to)) pts.push_back(to);
  if (toSite < 0 && from == to) toIdx = fromIdx;

  graph::GeometricGraph g(pts);
  for (int i = 0; i < ns; ++i) {
    for (int j : overlay.siteAdjacency()[static_cast<std::size_t>(i)]) {
      if (j > i) g.addEdge(i, j);
    }
  }
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
  const auto tree = graph::dijkstra(g, fromIdx, toIdx);
  return tree.dist[static_cast<std::size_t>(toIdx)];
}

double seconds(const std::chrono::steady_clock::time_point a,
               const std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Measurement {
  long queries = 0;
  double secs = 0.0;
  double qps() const { return secs > 0.0 ? static_cast<double>(queries) / secs : 0.0; }
};

constexpr int kRepeats = 3;  ///< Best-of-3: robust against machine noise.

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

template <typename Fn>
Measurement measureBestOf(long queries, Fn&& run) {
  run();  // warm-up (allocator, caches, workspaces)
  Measurement best;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = seconds(t0, t1);
    if (best.secs == 0.0 || s < best.secs) best = {queries, s};
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  std::string metricsPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metricsPath = argv[++i];
    }
  }
  if (gate) smoke = false;
  if (!metricsPath.empty()) {
    if (!obs::kCompiledIn) {
      std::fprintf(stderr, "e18_route_throughput: --metrics requested but observability was "
                           "compiled out (HYBRID_OBS_DISABLED)\n");
      return 2;
    }
    obs::setEnabled(true);
  }

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

    const Measurement legacy =
        measureBestOf(static_cast<long>(qpts.size()), [&] {
          double acc = 0.0;
          for (const auto& [a, b] : qpts) acc += legacyOverlayQuery(overlay, a, b);
          sink = acc;
        });

    routing::OverlayQueryWorkspace ws;
    routing::OverlayRoute route;
    const Measurement engine =
        measureBestOf(static_cast<long>(qpts.size()), [&] {
          double acc = 0.0;
          for (const auto& [a, b] : qpts) {
            overlay.query(a, b, ws, route);
            acc += route.distance;
          }
          sink = acc;
        });

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
    const double overlaySpeedup = legacy.qps() > 0.0 ? engine.qps() / legacy.qps() : 0.0;
    std::printf("     \"overlay\": {\"queries\": %ld,\n", legacy.queries);
    std::printf("       \"legacyRebuild\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f},\n",
                legacy.secs, legacy.qps());
    std::printf("       \"engine\": {\"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                "\"speedup\": %.2f}},\n",
                engine.secs, engine.qps(), overlaySpeedup);
    HYBRID_OBS_STMT(if (obs::enabled()) {
      const std::string key = ".n" + std::to_string(n);
      auto& reg = obs::Registry::global();
      reg.gauge("bench.e18.overlay.engine.queries_per_s" + key).set(engine.qps());
      // Machine-independent ratio: this is what the CI bench gate checks.
      reg.gauge("bench.e18.overlay.speedup" + key).set(overlaySpeedup);
    });
    std::printf("     \"routeBatch\": [\n");
    Measurement serial;
    bool firstT = true;
    for (const int t : threadCounts) {
      const Measurement m = measureBestOf(static_cast<long>(pairs.size()), [&] {
        const auto results = router->routeBatch(pairs, t);
        sink = static_cast<double>(results.size());
      });
      if (t == 1) serial = m;
      if (!firstT) std::printf(",\n");
      firstT = false;
      const double batchSpeedup = serial.qps() > 0.0 ? m.qps() / serial.qps() : 0.0;
      std::printf("       {\"threads\": %d, \"seconds\": %.4f, \"queriesPerSec\": %.0f, "
                  "\"speedupVsSerial\": %.2f}",
                  t, m.secs, m.qps(), batchSpeedup);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key = ".n" + std::to_string(n) + ".t" + std::to_string(t);
        auto& reg = obs::Registry::global();
        reg.gauge("bench.e18.route_batch.queries_per_s" + key).set(m.qps());
        if (t > 1) {
          reg.gauge("bench.e18.route_batch.speedup_vs_serial" + key).set(batchSpeedup);
        }
      });
    }
    std::printf("\n     ]}");
  }
  std::printf("\n  ]\n}\n");

  if (!metricsPath.empty()) {
    if (!obs::saveSnapshot(metricsPath, obs::capture())) {
      std::fprintf(stderr, "e18_route_throughput: cannot write metrics snapshot %s\n",
                   metricsPath.c_str());
      return 2;
    }
  }
  return 0;
}
