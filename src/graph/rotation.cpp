#include "graph/rotation.hpp"

#include <algorithm>

#include "geom/angle.hpp"

namespace hybrid::graph {

void sortCcw(const GeometricGraph& g, NodeId at, std::span<NodeId> nbrs) {
  const geom::Vec2 pa = g.position(at);
  std::sort(nbrs.begin(), nbrs.end(), [&](NodeId a, NodeId b) {
    return geom::directionAngle(pa, g.position(a)) < geom::directionAngle(pa, g.position(b));
  });
}

RotationSystem::RotationSystem(const GeometricGraph& g) : g_(g), order_(g.numNodes()) {
  for (NodeId v = 0; v < static_cast<NodeId>(g.numNodes()); ++v) {
    auto& o = order_[static_cast<std::size_t>(v)];
    o.assign(g.neighbors(v).begin(), g.neighbors(v).end());
    sortCcw(g, v, o);
  }
}

int RotationSystem::indexOf(NodeId at, NodeId nb) const {
  const auto& o = order_[static_cast<std::size_t>(at)];
  const auto it = std::find(o.begin(), o.end(), nb);
  return it == o.end() ? -1 : static_cast<int>(it - o.begin());
}

NodeId RotationSystem::nextCcw(NodeId at, NodeId from) const {
  const auto& o = order_[static_cast<std::size_t>(at)];
  const int i = indexOf(at, from);
  if (i < 0 || o.empty()) return -1;
  return o[static_cast<std::size_t>((i + 1) % static_cast<int>(o.size()))];
}

NodeId RotationSystem::nextCw(NodeId at, NodeId from) const {
  const auto& o = order_[static_cast<std::size_t>(at)];
  const int i = indexOf(at, from);
  if (i < 0 || o.empty()) return -1;
  const int n = static_cast<int>(o.size());
  return o[static_cast<std::size_t>((i - 1 + n) % n)];
}

NodeId RotationSystem::firstCw(NodeId at, geom::Vec2 towards) const {
  const auto& o = order_[static_cast<std::size_t>(at)];
  if (o.empty()) return -1;
  const geom::Vec2 pa = g_.position(at);
  const double ref = geom::directionAngle(pa, towards);
  // Largest neighbor angle <= ref (wrapping): the first one sweeping cw.
  NodeId best = -1;
  double bestGap = 1e18;
  for (NodeId nb : o) {
    double gap = ref - geom::directionAngle(pa, g_.position(nb));
    if (gap < 0) gap += 2.0 * 3.141592653589793;
    if (gap < bestGap) {
      bestGap = gap;
      best = nb;
    }
  }
  return best;
}

NodeId RotationSystem::firstCcw(NodeId at, geom::Vec2 towards) const {
  const auto& o = order_[static_cast<std::size_t>(at)];
  if (o.empty()) return -1;
  const geom::Vec2 pa = g_.position(at);
  const double ref = geom::directionAngle(pa, towards);
  NodeId best = -1;
  double bestGap = 1e18;
  for (NodeId nb : o) {
    double gap = geom::directionAngle(pa, g_.position(nb)) - ref;
    if (gap < 0) gap += 2.0 * 3.141592653589793;
    if (gap < bestGap) {
      bestGap = gap;
      best = nb;
    }
  }
  return best;
}

}  // namespace hybrid::graph
