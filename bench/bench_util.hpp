#pragma once

// Shared helpers for the experiment drivers. Each driver is a plain binary
// that prints its table to stdout; see DESIGN.md section 3 for the
// experiment index and EXPERIMENTS.md for recorded results. The gated
// benches (E17-E22) also share their command line, timer and snapshot
// writer from here.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/hybrid_network.hpp"
#include "delaunay/triangulation.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid::bench {

/// The gated benches' command line, `[--smoke | --gate] [--metrics FILE]`:
///   --smoke         tiny sweep, a CI correctness check;
///   --gate          one mid-size config for the CI perf gate (wins over
///                   --smoke);
///   --metrics FILE  record gauges and write an obs snapshot to FILE, which
///                   the CI gate checks with tools/metrics_report --check.
/// Neither flag: the full sweep. Other arguments are ignored.
struct BenchArgs {
  /// The binary's name, for messages.
  const char* name = "";
  bool smoke = false;
  bool gate = false;
  /// Where to write the obs snapshot; empty for none.
  std::string metricsPath;
};

/// Parses the gated benches' command line. --metrics turns observability
/// on, or exits with code 2 when it was compiled out.
inline BenchArgs parseBenchArgs(int argc, char** argv, const char* name) {
  BenchArgs args;
  args.name = name;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      args.gate = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      args.metricsPath = argv[++i];
    }
  }
  if (args.gate) args.smoke = false;
  if (!args.metricsPath.empty()) {
    if (!obs::kCompiledIn) {
      std::fprintf(stderr, "%s: --metrics requested but observability was compiled out "
                           "(HYBRID_OBS_DISABLED)\n",
                   name);
      std::exit(2);
    }
    obs::setEnabled(true);
  }
  return args;
}

/// Writes the obs snapshot when --metrics asked for one. Returns the
/// bench's exit code: 0, or 2 when the file cannot be written.
inline int writeMetrics(const BenchArgs& args) {
  if (args.metricsPath.empty() || obs::saveSnapshot(args.metricsPath, obs::capture())) return 0;
  std::fprintf(stderr, "%s: cannot write metrics snapshot %s\n", args.name,
               args.metricsPath.c_str());
  return 2;
}

inline double seconds(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `num / den`, or 0 when `den` is not positive: rates and speedups of
/// timings that may read 0.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Timed runs per measurement; the fastest counts, which rides out machine
/// noise.
constexpr int kRepeats = 3;

/// Seconds of the fastest of kRepeats runs of `run`, after one untimed
/// warm-up run (allocator, caches, workspaces).
template <typename Fn>
double bestSeconds(Fn&& run) {
  run();
  double best = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double s = seconds(t0, std::chrono::steady_clock::now());
    if (best == 0.0 || s < best) best = s;
  }
  return best;
}

/// Passes over the same pairs in one timed sample of a routeBatch thread
/// sweep (and of e18's overlay engine side). One pass over a few hundred
/// pairs lasts only milliseconds, too short for a stable ratio; twenty
/// passes keep the fastest 1-thread sample of the gated sweeps (e20's
/// stateless router, 3-6 ms a pass on a 4-core box) above 50 ms.
constexpr int kBatchPasses = 20;

/// Seconds per pass of `router.routeBatch(pairs, threads)`, timed by
/// bestSeconds() over samples of kBatchPasses passes.
inline double batchSeconds(const routing::Router& router,
                           const std::vector<routing::RoutePair>& pairs, int threads) {
  volatile std::size_t sink = 0;  // keep the batches observable
  const double secs = bestSeconds([&] {
    for (int p = 0; p < kBatchPasses; ++p) sink = router.routeBatch(pairs, threads).size();
  });
  return secs / kBatchPasses;
}

/// Stretch statistics over a set of routing attempts.
struct StretchStats {
  int attempts = 0;
  int delivered = 0;
  int fallbacks = 0;
  std::vector<double> stretches;

  void add(const routing::RouteResult& r, double stretch) {
    ++attempts;
    if (!r.delivered) return;
    ++delivered;
    fallbacks += r.fallbacks;
    stretches.push_back(stretch);
  }

  double deliveryRate() const {
    return attempts == 0 ? 0.0 : static_cast<double>(delivered) / attempts;
  }
  double mean() const {
    if (stretches.empty()) return 0.0;
    double s = 0.0;
    for (double v : stretches) s += v;
    return s / static_cast<double>(stretches.size());
  }
  double percentile(double p) const {
    if (stretches.empty()) return 0.0;
    auto sorted = stretches;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(p * (static_cast<double>(sorted.size()) - 1));
    return sorted[idx];
  }
  double maxStretch() const { return percentile(1.0); }
};

/// Runs `pairs` random s-t routing attempts through `router`.
inline StretchStats evaluateRouter(core::HybridNetwork& net, routing::Router& router,
                                   int pairs, unsigned seed) {
  StretchStats stats;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net.ldel().numNodes()) - 1);
  for (int i = 0; i < pairs; ++i) {
    const int s = pick(rng);
    int t = pick(rng);
    if (t == s) t = (t + 1) % static_cast<int>(net.ldel().numNodes());
    const auto r = router.route(s, t);
    stats.add(r, net.stretch(r, s, t));
  }
  return stats;
}

/// A deployment with a few disjoint convex obstacles, scaled so that
/// roughly `n` nodes survive. The obstacle layout follows the paper's
/// motivation (city blocks / buildings with convex footprints).
inline scenario::Scenario convexHolesScenario(std::size_t n, unsigned seed) {
  scenario::ScenarioParams p = scenario::paramsForNodeCount(n + n / 3, seed);
  const double side = p.width;
  p.obstacles.push_back(scenario::regularPolygonObstacle(
      {0.28 * side, 0.30 * side}, 0.11 * side, 6, 0.3));
  p.obstacles.push_back(scenario::rectangleObstacle(
      {0.55 * side, 0.55 * side}, {0.80 * side, 0.72 * side}));
  p.obstacles.push_back(scenario::regularPolygonObstacle(
      {0.72 * side, 0.24 * side}, 0.09 * side, 5, 1.1));
  p.obstacles.push_back(scenario::regularPolygonObstacle(
      {0.25 * side, 0.72 * side}, 0.10 * side, 8));
  return scenario::makeScenario(p);
}

/// Edge count of an overlay's site graph. A visibility overlay keeps that
/// graph (siteAdjacency()). A Delaunay overlay does not, because each query
/// triangulates the sites together with s and t, so its count is computed
/// here: the Delaunay triangulation of sitePositions() without the edges
/// that visibility() blocks.
inline std::size_t siteGraphEdges(const routing::OverlayGraph& overlay) {
  std::size_t edges = 0;
  if (overlay.edgeMode() == routing::EdgeMode::Visibility) {
    for (const auto& nbs : overlay.siteAdjacency()) edges += nbs.size();
    return edges / 2;
  }
  const auto& pos = overlay.sitePositions();
  if (pos.size() < 3) return 0;
  for (const auto& [u, v] : delaunay::DelaunayTriangulation(pos).edges()) {
    if (overlay.visibility().visible(pos[static_cast<std::size_t>(u)],
                                     pos[static_cast<std::size_t>(v)])) {
      ++edges;
    }
  }
  return edges;
}

inline void printRule(int width = 110) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace hybrid::bench
