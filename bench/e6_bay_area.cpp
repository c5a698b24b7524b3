// E6 — bay-area routing (§4.4, Lemma 4.19).
//
// A U-shaped hole forms a deep bay inside its convex hull. Source/target
// pairs are sampled inside the bay (case 5 of the protocol). Lemma 4.19
// bounds the competitive ratio by (2 + |E_route|) * 5.9, where E_route is
// the set of extreme points traversed; we report the measured stretch and
// check the bound pair by pair. Exits 1 when any row has a violation.

#include <random>

#include "bench_util.hpp"

using namespace hybrid;

int main() {
  int totalViolations = 0;
  std::printf("E6: routing inside a bay (case 5), U-shaped hole\n");
  std::printf("%7s %6s %7s | %8s %8s %8s | %9s %8s %9s\n", "width", "n", "pairs", "mean",
              "p95", "max", "maxEroute", "bound", "violates");
  bench::printRule();

  for (const double w : {6.0, 10.0, 14.0, 18.0}) {
    const double side = 2.2 * w;
    scenario::ScenarioParams p;
    p.width = p.height = side;
    p.seed = 31;
    p.obstacles.push_back(
        scenario::uShapeObstacle({side / 2, side / 2}, w, 0.85 * w, 1.4));
    auto sc = scenario::makeScenario(p);
    core::HybridNetwork net(sc.points);
    auto& router = net.router();

    // Bay interior: inside the U opening (above the inner bottom, between
    // the walls).
    const double x0 = side / 2 - w / 2 + 1.4;
    const double x1 = side / 2 + w / 2 - 1.4;
    const double y0 = side / 2 - 0.425 * w + 1.4;
    const double y1 = side / 2 + 0.425 * w;
    std::vector<int> bayNodes;
    for (int v = 0; v < static_cast<int>(net.ldel().numNodes()); ++v) {
      const auto pos = net.ldel().position(v);
      if (pos.x > x0 && pos.x < x1 && pos.y > y0 && pos.y < y1 &&
          router.locate(pos).has_value()) {
        bayNodes.push_back(v);
      }
    }
    if (bayNodes.size() < 2) {
      std::printf("%7.1f: not enough bay nodes\n", w);
      continue;
    }

    std::mt19937 rng(7);
    std::uniform_int_distribution<int> pick(0, static_cast<int>(bayNodes.size()) - 1);
    bench::StretchStats stats;
    int maxEroute = 0;
    int violations = 0;
    const int pairs = 120;
    for (int i = 0; i < pairs; ++i) {
      const int s = bayNodes[static_cast<std::size_t>(pick(rng))];
      int t = bayNodes[static_cast<std::size_t>(pick(rng))];
      if (t == s) continue;
      const auto r = router.route(s, t);
      const double st = net.stretch(r, s, t);
      stats.add(r, st);
      maxEroute = std::max(maxEroute, r.bayExtremePoints);
      if (r.delivered && st > (2.0 + r.bayExtremePoints) * 5.9 + 1e-9) ++violations;
    }
    std::printf("%7.1f %6zu %7d | %8.3f %8.3f %8.3f | %9d %8.1f %9d\n", w,
                net.udg().numNodes(), stats.attempts, stats.mean(), stats.percentile(0.95),
                stats.maxStretch(), maxEroute, (2.0 + maxEroute) * 5.9, violations);
    totalViolations += violations;
  }
  bench::printRule();
  std::printf("expected: zero bound violations; measured stretch far below the\n"
              "(2+|E_route|)*5.9 worst-case guarantee of Lemma 4.19\n");
  return totalViolations > 0 ? 1 : 0;
}
