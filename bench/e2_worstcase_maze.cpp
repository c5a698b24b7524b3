// E2 — worst-case separation: local routing vs hole abstraction (§1.4).
//
// A comb-shaped radio hole; the source sits at the bottom of the first gap
// and the target at the bottom of the last gap. Any local (GOAFR-style)
// strategy keeps descending into intermediate gaps and climbing back out,
// so its path grows with the number and depth of prongs, while the hybrid
// router escapes the bay via its extreme points and plans around the hull.
// This reproduces the shape of the Kuhn-Wattenhofer-Zollinger lower-bound
// construction the paper cites (local routing cannot be o(rho^2)).
//
// Exits 1 when a face-greedy, GOAFR+ or hybrid route is undelivered.

#include <utility>

#include "bench_util.hpp"
#include "routing/baselines.hpp"
#include "routing/goafr.hpp"

using namespace hybrid;

namespace {

struct MazeInstance {
  scenario::Scenario sc;
  geom::Vec2 sPos, tPos;
};

MazeInstance makeMaze(int teeth, double depth, unsigned seed) {
  const double toothW = 2.0;
  const double gapW = 3.2;  // wide enough that gaps stay hole-free
  const double bar = 1.5;
  const double combW = teeth * (toothW + gapW) - gapW;
  const double margin = 6.0;
  scenario::ScenarioParams p;
  p.width = combW + 2.0 * margin;
  p.height = depth + bar + 2.0 * margin;
  p.seed = seed;
  p.spacing = 0.42;  // dense deployment: no spurious interior holes
  const geom::Vec2 origin{margin, margin};
  p.obstacles.push_back(scenario::combObstacle(origin, teeth, toothW, gapW, depth, bar));
  MazeInstance mi;
  mi.sc = scenario::makeScenario(p);
  // Bottom of the first and last gap, just above the bar.
  const double gapY = margin + bar + 0.8;
  mi.sPos = {margin + toothW + gapW / 2.0, gapY};
  mi.tPos = {margin + (teeth - 1) * (toothW + gapW) - gapW / 2.0, gapY};
  return mi;
}

int nearestNode(const graph::GeometricGraph& g, geom::Vec2 p) {
  int best = 0;
  double bestD = 1e18;
  for (int v = 0; v < static_cast<int>(g.numNodes()); ++v) {
    const double d = geom::dist2(g.position(v), p);
    if (d < bestD) {
      bestD = d;
      best = v;
    }
  }
  return best;
}

/// Prints one row; returns how many of its three routes were undelivered.
int runRow(int teeth, double depth) {
  auto mi = makeMaze(teeth, depth, 17);
  core::HybridNetwork net(mi.sc.points);
  const int s = nearestNode(net.ldel(), mi.sPos);
  const int t = nearestNode(net.ldel(), mi.tPos);

  routing::FaceGreedyRouter face(net.ldel(), net.subdivision(), net.holes());
  routing::GoafrRouter goafr(net.ldel(), net.subdivision());
  auto& hybrid = net.router();

  const auto rg = goafr.route(s, t);
  const auto rf = face.route(s, t);
  const auto rh = hybrid.route(s, t);
  const double sf = net.stretch(rf, s, t);
  const double sg = net.stretch(rg, s, t);
  const double sh = net.stretch(rh, s, t);
  std::printf("%6d %6.1f %6zu | %10.3f %10.3f | %10.3f %10zu | %8.2f\n", teeth, depth,
              net.ldel().numNodes(), sf, sg, sh, rh.hops(),
              std::max(sf, sg) / (sh > 0 ? sh : 1.0));
  const std::pair<const char*, const routing::RouteResult*> routes[] = {
      {"face-greedy", &rf}, {"goafr+", &rg}, {"hybrid", &rh}};
  int undelivered = 0;
  for (const auto& [label, r] : routes) {
    if (r->delivered) continue;
    std::printf("FAIL: %s route undelivered at teeth=%d depth=%.1f\n", label, teeth, depth);
    ++undelivered;
  }
  return undelivered;
}

}  // namespace

int main() {
  int failures = 0;
  std::printf("E2: worst-case maze (comb obstacle), s/t inside first and last gap\n");
  std::printf("%6s %6s %6s | %10s %10s | %10s %10s | %8s\n", "teeth", "depth", "n",
              "face-grdy", "goafr+", "hybrid", "(hops)", "ratio");
  bench::printRule();
  std::printf("-- sweep prong count (depth = 8) --\n");
  for (const int teeth : {3, 5, 8, 12, 16}) failures += runRow(teeth, 8.0);
  std::printf("-- sweep prong depth (teeth = 8) --\n");
  for (const double depth : {4.0, 8.0, 16.0, 24.0}) failures += runRow(8, depth);
  bench::printRule();
  std::printf("expected: face-greedy stretch grows with prongs/depth; hybrid stays "
              "near-constant\n");
  return failures > 0 ? 1 : 0;
}
