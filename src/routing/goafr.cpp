#include "routing/goafr.hpp"

#include <algorithm>

namespace hybrid::routing {

namespace {

constexpr double kInitialCircleFactor = 1.4;  ///< Bounding circle starts at this * |ut|.
constexpr double kCircleGrowth = 2.0;         ///< Growth factor when both sweeps hit it.
constexpr int kMaxCircleGrowths = 24;

// Greedy step: strictly closer neighbor, or -1 at a local minimum.
graph::NodeId greedyStep(const graph::GeometricGraph& g, graph::NodeId cur,
                         geom::Vec2 pt) {
  const double dCur = geom::dist(g.position(cur), pt);
  graph::NodeId best = -1;
  double bestD = dCur;
  for (graph::NodeId nb : g.neighbors(cur)) {
    const double d = geom::dist(g.position(nb), pt);
    if (d < bestD) {
      bestD = d;
      best = nb;
    }
  }
  return best;
}

}  // namespace

graph::NodeId GoafrRouter::facePhase(std::vector<graph::NodeId>& path, graph::NodeId u,
                                     graph::NodeId target) const {
  const geom::Vec2 pt = g_.position(target);
  const double dU = geom::dist(g_.position(u), pt);
  double r = kInitialCircleFactor * dU;
  const std::size_t maxSteps = 4 * g_.numEdges() + 16;

  for (int growth = 0; growth < kMaxCircleGrowths; ++growth) {
    for (const bool cwSweep : {true, false}) {
      graph::NodeId prev = u;
      graph::NodeId cur = cwSweep ? rot_.firstCw(u, pt) : rot_.firstCcw(u, pt);
      if (cur < 0) continue;
      const graph::NodeId firstEdgeTo = cur;
      std::vector<graph::NodeId> walk;
      bool hitCircle = false;
      for (std::size_t steps = 0; steps < maxSteps; ++steps) {
        if (geom::dist(g_.position(cur), pt) > r) {
          hitCircle = true;
          break;
        }
        walk.push_back(cur);
        if (cur == target || geom::dist(g_.position(cur), pt) < dU) {
          // Success: commit the exploration and resume greedy from here.
          path.insert(path.end(), walk.begin(), walk.end());
          return cur;
        }
        // Stay on the face the ray u->t enters: entering it over the
        // clockwise-first edge walks it with the face-left rule (nextCw of
        // the reverse edge), the counter-clockwise entry mirrors it.
        const graph::NodeId next =
            cwSweep ? rot_.nextCw(cur, prev) : rot_.nextCcw(cur, prev);
        if (next < 0) break;
        prev = cur;
        cur = next;
        if (prev == u && cur == firstEdgeTo) break;  // full face loop
        if (cur == u && walk.size() + 1 >= g_.numNodes()) break;
      }
      // Abandoned: the message physically walks back to u (GOAFR pays for
      // its exploration).
      if (!walk.empty()) {
        path.insert(path.end(), walk.begin(), walk.end());
        walk.pop_back();
        std::reverse(walk.begin(), walk.end());
        path.insert(path.end(), walk.begin(), walk.end());
        path.push_back(u);
      }
      if (!hitCircle && !cwSweep) {
        // Both directions completed a full loop without finding progress:
        // the target is separated from u by this face. Give up.
        return -1;
      }
    }
    r *= kCircleGrowth;  // both directions hit the circle: enlarge and retry
  }
  return -1;
}

RouteResult GoafrRouter::route(graph::NodeId source, graph::NodeId target) const {
  RouteResult result;
  result.path.push_back(source);
  const geom::Vec2 pt = g_.position(target);
  graph::NodeId cur = source;
  const std::size_t maxHops = 64 * g_.numNodes() + 64;

  while (cur != target && result.path.size() < maxHops) {
    const graph::NodeId next = greedyStep(g_, cur, pt);
    if (next >= 0) {
      result.path.push_back(next);
      cur = next;
      continue;
    }
    const graph::NodeId resumed = facePhase(result.path, cur, target);
    if (resumed < 0 || resumed == cur) break;
    cur = resumed;
  }
  result.delivered = cur == target;
  return result;
}

}  // namespace hybrid::routing
