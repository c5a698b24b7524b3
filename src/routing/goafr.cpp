#include "routing/goafr.hpp"

#include <algorithm>
#include <numbers>

#include "geom/angle.hpp"

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

int GoafrRouter::turn(int h, bool clockwise) const {
  do {
    h = clockwise ? faces_.cw(h) : faces_.ccw(h);
  } while (faces_.isHull(h));
  return h;
}

int GoafrRouter::firstEdge(graph::NodeId u, geom::Vec2 towards, bool clockwise) const {
  const geom::Vec2 pu = g_.position(u);
  const double ref = geom::directionAngle(pu, towards);
  // Smallest angular gap from the ray, scanning u's half-edges in ccw order.
  int best = -1;
  double bestGap = 1e18;
  for (int h = faces_.out(u); h < faces_.out(u + 1); ++h) {
    if (faces_.isHull(h)) continue;
    const double a = geom::directionAngle(pu, g_.position(faces_.head(h)));
    double gap = clockwise ? ref - a : a - ref;
    if (gap < 0) gap += 2.0 * std::numbers::pi;
    if (gap < bestGap) {
      bestGap = gap;
      best = h;
    }
  }
  return best;
}

graph::NodeId GoafrRouter::facePhase(std::vector<graph::NodeId>& path, graph::NodeId u,
                                     graph::NodeId target) const {
  const geom::Vec2 pt = g_.position(target);
  const double dU = geom::dist(g_.position(u), pt);
  double r = kInitialCircleFactor * dU;
  const std::size_t maxSteps = 4 * g_.numEdges() + 16;

  for (int growth = 0; growth < kMaxCircleGrowths; ++growth) {
    for (const bool cwSweep : {true, false}) {
      const int first = firstEdge(u, pt, cwSweep);
      if (first < 0) continue;
      int h = first;  // the half-edge the message last crossed
      graph::NodeId cur = faces_.head(h);
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
        // clockwise-first edge walks it with the face-left rule (the edge
        // clockwise after the reverse edge), the counter-clockwise entry
        // mirrors it.
        h = turn(faces_.twin(h), cwSweep);
        cur = faces_.head(h);
        if (h == first) break;  // full face loop
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
