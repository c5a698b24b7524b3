#include "graph/shortest_path.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>

namespace hybrid::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

std::vector<NodeId> ShortestPathTree::pathTo(NodeId target) const {
  const auto t = static_cast<std::size_t>(target);
  if (t >= dist.size() || dist[t] == kInf) return {};
  std::vector<NodeId> path;
  path.reserve(16);
  const std::size_t maxHops = dist.size();  // a simple path has <= n nodes
  for (NodeId v = target; v != -1; v = pred[static_cast<std::size_t>(v)]) {
    if (path.size() > maxHops) return {};  // corrupted pred chain: bail out
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree dijkstra(const GeometricGraph& g, NodeId source, NodeId target) {
  const std::size_t n = g.numNodes();
  ShortestPathTree out;
  out.dist.assign(n, kInf);
  out.pred.assign(n, -1);
  out.dist[static_cast<std::size_t>(source)] = 0.0;

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > out.dist[static_cast<std::size_t>(u)]) continue;
    if (u == target) break;
    for (NodeId v : g.neighbors(u)) {
      const double nd = d + g.edgeLength(u, v);
      if (nd < out.dist[static_cast<std::size_t>(v)]) {
        out.dist[static_cast<std::size_t>(v)] = nd;
        out.pred[static_cast<std::size_t>(v)] = u;
        pq.emplace(nd, v);
      }
    }
  }
  return out;
}

std::vector<NodeId> astarPath(const GeometricGraph& g, NodeId source, NodeId target) {
  const std::size_t n = g.numNodes();
  std::vector<double> gScore(n, kInf);
  std::vector<NodeId> pred(n, -1);
  std::vector<bool> closed(n, false);
  gScore[static_cast<std::size_t>(source)] = 0.0;

  const geom::Vec2 tp = g.position(target);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> open;
  open.emplace(geom::dist(g.position(source), tp), source);

  while (!open.empty()) {
    const NodeId u = open.top().second;
    open.pop();
    if (closed[static_cast<std::size_t>(u)]) continue;
    closed[static_cast<std::size_t>(u)] = true;
    if (u == target) break;
    for (NodeId v : g.neighbors(u)) {
      if (closed[static_cast<std::size_t>(v)]) continue;
      const double nd = gScore[static_cast<std::size_t>(u)] + g.edgeLength(u, v);
      if (nd < gScore[static_cast<std::size_t>(v)]) {
        gScore[static_cast<std::size_t>(v)] = nd;
        pred[static_cast<std::size_t>(v)] = u;
        open.emplace(nd + geom::dist(g.position(v), tp), v);
      }
    }
  }
  if (gScore[static_cast<std::size_t>(target)] == kInf) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != -1; v = pred[static_cast<std::size_t>(v)]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

double shortestPathLength(const GeometricGraph& g, NodeId source, NodeId target) {
  return dijkstra(g, source, target).dist[static_cast<std::size_t>(target)];
}

std::vector<NodeId> kHopNeighborhood(const GeometricGraph& g, NodeId source, int k) {
  if (k == 0) return {source};
  // Visited set: linear probing over a power-of-two table of node ids, -1
  // for empty, kept at most half full. It is sized from the first hop's
  // degree sum (the whole 2-hop bound), so it rarely grows.
  std::size_t bound = 1 + g.neighbors(source).size();
  for (NodeId v : g.neighbors(source)) bound += g.neighbors(v).size();
  std::vector<NodeId> seen(std::bit_ceil(2 * bound), -1);
  std::vector<NodeId> out;
  out.reserve(1 + g.neighbors(source).size());
  out.push_back(source);
  const auto insert = [&seen](NodeId v) {
    const std::size_t mask = seen.size() - 1;
    std::size_t s = (static_cast<std::size_t>(v) * 0x9E3779B97F4A7C15ULL >> 32) & mask;
    for (; seen[s] != -1; s = (s + 1) & mask) {
      if (seen[s] == v) return false;
    }
    seen[s] = v;
    return true;
  };
  insert(source);
  std::size_t levelBegin = 0;
  for (int hop = 0; (k < 0 || hop < k) && levelBegin < out.size(); ++hop) {
    const std::size_t levelEnd = out.size();
    for (std::size_t i = levelBegin; i < levelEnd; ++i) {
      for (NodeId v : g.neighbors(out[i])) {
        if (2 * (out.size() + 1) > seen.size()) {
          std::vector<NodeId>(2 * seen.size(), -1).swap(seen);
          for (NodeId w : out) insert(w);
        }
        if (insert(v)) out.push_back(v);
      }
    }
    levelBegin = levelEnd;
  }
  return out;
}

}  // namespace hybrid::graph
