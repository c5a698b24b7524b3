// E1 — c-competitive routing with hole abstractions (Theorem 1.2, §3, §4).
//
// Random deployments with disjoint convex radio holes; 200 random s-t pairs
// per instance. Reports delivery rate and path stretch (path length divided
// by the shortest UDG path, the paper's competitive ratio) for the local
// baselines and the paper's abstraction/overlay configurations.
//
// Expected shape: greedy loses packets at holes; compass loops; the
// GOAFR-style face-greedy baseline delivers with noticeably larger stretch;
// every hybrid configuration stays a small constant, flat in n, far below
// the worst-case ceilings (17.7 visibility / 35.37 overlay Delaunay).
//
// Exits 1 when a paper configuration (the S3, S4 and S4.1 rows) delivers
// less than 100% of its pairs or its max stretch exceeds its ceiling.

#include <memory>

#include "bench_util.hpp"
#include "routing/baselines.hpp"
#include "routing/goafr.hpp"

using namespace hybrid;

namespace {
constexpr double kVisibilityCeiling = 17.7;  ///< Thm 1.2, visibility-graph overlay.
constexpr double kDelaunayCeiling = 35.37;   ///< Thm 1.2, overlay Delaunay graph.
}  // namespace

int main() {
  int failures = 0;
  std::printf("E1: competitive routing with hole abstractions\n");
  std::printf("%6s %8s %-22s %6s %8s %8s %8s %8s %6s\n", "n", "holes", "router", "deliv",
              "mean", "p50", "p95", "max", "fallbk");
  bench::printRule();

  for (const std::size_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
    auto sc = bench::convexHolesScenario(n, 42 + static_cast<unsigned>(n));
    core::HybridNetwork net(sc.points);

    routing::GreedyRouter greedy(net.ldel());
    routing::CompassRouter compass(net.ldel());
    routing::FaceGreedyRouter face(net.ldel(), net.subdivision(), net.holes());
    routing::GoafrRouter goafr(net.ldel(), net.subdivision());
    auto hullDel = net.makeRouter(
        {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Delaunay});
    auto hullVis = net.makeRouter(
        {.sites = routing::SiteMode::HullNodes, .edges = routing::EdgeMode::Visibility});
    auto bndDel = net.makeRouter(
        {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Delaunay});
    auto bndVis = net.makeRouter(
        {.sites = routing::SiteMode::AllHoleNodes, .edges = routing::EdgeMode::Visibility});
    auto lchDel = net.makeRouter(
        {.sites = routing::SiteMode::LocallyConvexHull, .edges = routing::EdgeMode::Delaunay});

    struct Entry {
      routing::Router* router;
      const char* label;
      double ceiling;  ///< Paper ceiling on max stretch; 0 for other rows.
    };
    const Entry entries[] = {
        {&greedy, "greedy (baseline)", 0.0},
        {&compass, "compass (baseline)", 0.0},
        {&face, "face-greedy", 0.0},
        {&goafr, "goafr+", 0.0},
        {bndVis.get(), "S3 boundary+visgraph", kVisibilityCeiling},
        {bndDel.get(), "S3 boundary+delaunay", kDelaunayCeiling},
        {hullVis.get(), "S4 hulls+visgraph", kVisibilityCeiling},
        {hullDel.get(), "S4 hulls+delaunay", kDelaunayCeiling},
        {lchDel.get(), "S4.1 lch+delaunay", kDelaunayCeiling},
    };
    for (const auto& e : entries) {
      const auto stats =
          bench::evaluateRouter(net, *e.router, 200, 7 + static_cast<unsigned>(n));
      std::printf("%6zu %8zu %-22s %5.1f%% %8.3f %8.3f %8.3f %8.3f %6d\n",
                  net.ldel().numNodes(), net.holes().holes.size(), e.label,
                  100.0 * stats.deliveryRate(), stats.mean(), stats.percentile(0.5),
                  stats.percentile(0.95), stats.maxStretch(), stats.fallbacks);
      if (e.ceiling > 0.0 &&
          (stats.delivered < stats.attempts || stats.maxStretch() > e.ceiling)) {
        std::printf("FAIL: %s breaks the paper bound at n=%zu\n", e.label,
                    net.ldel().numNodes());
        failures += 1;
      }
    }
    std::printf("%6s overlay edges: visibility=%zu delaunay=%zu (sites hull=%zu bnd=%zu)\n",
                "", bench::siteGraphEdges(hullVis->overlay()),
                bench::siteGraphEdges(hullDel->overlay()),
                hullDel->overlay().sites().size(), bndDel->overlay().sites().size());
    bench::printRule();
  }
  std::printf("paper ceilings: 5.9 (visible pairs), 17.7 (visibility graph), "
              "35.37 (overlay Delaunay)\n");
  return failures > 0 ? 1 : 0;
}
