// The LDel^2 construction as it stood before its kernels were replaced:
// an unordered_map hash grid that returns a fresh vector per query, a
// per-node BFS over an n-sized hop array, the exact-only diametral test
// and up to three circumcircle tests per candidate. It is kept verbatim
// (with the large-coordinate Gabriel slack fix) as the ground truth the
// ldel_invariants oracle and e22's speedup gauge compare the fast build to.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "geom/expansion.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "testkit/oracles.hpp"
#include "util/parallel.hpp"

namespace hybrid::testkit {

namespace {

using geom::Vec2;

/// Uniform hash grid; queries return indices in (dx, dy) cell order,
/// ascending index within a cell.
class HashGrid {
 public:
  HashGrid(const std::vector<Vec2>& points, double cellSize)
      : points_(points), cell_(cellSize > 0.0 ? cellSize : 1.0) {
    cells_.reserve(points.size());
    for (int i = 0; i < static_cast<int>(points.size()); ++i) {
      cells_[cellKey(points[static_cast<std::size_t>(i)])].push_back(i);
    }
  }

  std::vector<int> queryRadius(Vec2 center, double radius) const {
    std::vector<int> out;
    const double r2 = radius * radius;
    const auto cx = static_cast<std::int64_t>(std::floor(center.x / cell_));
    const auto cy = static_cast<std::int64_t>(std::floor(center.y / cell_));
    const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
    if (reach == 1) {
      // Cell size == radius: gather the <= 9 candidate cells first so the
      // result is reserved once, then filter by distance.
      const std::vector<int>* cand[9];
      std::size_t ncand = 0;
      std::size_t total = 0;
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          const auto it = cells_.find(packCell(cx + dx, cy + dy));
          if (it == cells_.end()) continue;
          cand[ncand++] = &it->second;
          total += it->second.size();
        }
      }
      out.reserve(total);
      for (std::size_t k = 0; k < ncand; ++k) {
        for (int i : *cand[k]) {
          if (geom::dist2(points_[static_cast<std::size_t>(i)], center) <= r2) out.push_back(i);
        }
      }
      return out;
    }
    for (std::int64_t dx = -reach; dx <= reach; ++dx) {
      for (std::int64_t dy = -reach; dy <= reach; ++dy) {
        const auto it = cells_.find(packCell(cx + dx, cy + dy));
        if (it == cells_.end()) continue;
        for (int i : it->second) {
          if (geom::dist2(points_[static_cast<std::size_t>(i)], center) <= r2) out.push_back(i);
        }
      }
    }
    return out;
  }

  std::vector<int> neighborsOf(int i, double radius) const {
    auto out = queryRadius(points_[static_cast<std::size_t>(i)], radius);
    std::erase(out, i);
    return out;
  }

 private:
  static std::int64_t packCell(std::int64_t cx, std::int64_t cy) {
    return ((cx + 0x40000000LL) << 32) | ((cy + 0x40000000LL) & 0xFFFFFFFFLL);
  }
  std::int64_t cellKey(Vec2 p) const {
    return packCell(static_cast<std::int64_t>(std::floor(p.x / cell_)),
                    static_cast<std::int64_t>(std::floor(p.y / cell_)));
  }

  const std::vector<Vec2>& points_;
  double cell_;
  std::unordered_map<std::int64_t, std::vector<int>> cells_;
};

/// Nodes within k hops of `source` (unbounded for k < 0), ascending, via
/// an n-sized hop array.
std::vector<int> kHopNeighborhood(const graph::GeometricGraph& g, int source, int k) {
  std::vector<int> hops(g.numNodes(), -1);
  hops[static_cast<std::size_t>(source)] = 0;
  std::queue<int> q;
  q.push(source);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    const int hu = hops[static_cast<std::size_t>(u)];
    if (k >= 0 && hu >= k) continue;
    for (int v : g.neighbors(u)) {
      if (hops[static_cast<std::size_t>(v)] == -1) {
        hops[static_cast<std::size_t>(v)] = hu + 1;
        q.push(v);
      }
    }
  }
  std::vector<int> out;
  for (std::size_t v = 0; v < hops.size(); ++v) {
    if (hops[v] >= 0) out.push_back(static_cast<int>(v));
  }
  return out;
}

/// (a - d)·(b - d) < 0, by expansion arithmetic alone.
bool inDiametralCircleExact(Vec2 a, Vec2 b, Vec2 d) {
  const auto adx = geom::Expansion::twoDiff(a.x, d.x);
  const auto ady = geom::Expansion::twoDiff(a.y, d.y);
  const auto bdx = geom::Expansion::twoDiff(b.x, d.x);
  const auto bdy = geom::Expansion::twoDiff(b.y, d.y);
  return (adx * bdx + ady * bdy).sign() < 0;
}

bool circumcircleContains(Vec2 a, Vec2 b, Vec2 c, Vec2 p) {
  const int o = geom::orient(a, b, c);
  if (o == 0) return false;
  const int ic = geom::inCircle(a, b, c, p);
  return o > 0 ? ic > 0 : ic < 0;
}

double gabrielQueryRadius(Vec2 pu, Vec2 pv) {
  const double half = geom::dist(pu, pv) / 2.0;
  const double scale =
      std::max({std::fabs(pu.x), std::fabs(pu.y), std::fabs(pv.x), std::fabs(pv.y)});
  return half + 32.0 * std::numeric_limits<double>::epsilon() * (scale + half) + 1e-12;
}

}  // namespace

delaunay::LocalizedDelaunay referenceLocalizedDelaunay(const std::vector<geom::Vec2>& points,
                                                       const delaunay::LDelOptions& opts) {
  delaunay::LocalizedDelaunay out;
  const HashGrid grid(points, opts.radius);
  out.udg = graph::GeometricGraph(points);
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    for (int j : grid.neighborsOf(i, opts.radius)) {
      if (j > i) out.udg.addEdge(i, j);
    }
  }
  if (opts.dropProbability > 0.0 && opts.reliableRadius < opts.radius) {
    for (const auto& [u, v] : out.udg.edges()) {
      if (out.udg.edgeLength(u, v) > opts.reliableRadius &&
          delaunay::qudgLinkDropped(u, v, opts.dropSeed, opts.dropProbability)) {
        out.udg.removeEdge(u, v);
      }
    }
  }
  out.graph = graph::GeometricGraph(points);

  const int n = static_cast<int>(points.size());
  const unsigned threads = util::resolveThreads(opts.threads);

  std::vector<std::vector<int>> khop(static_cast<std::size_t>(n));
  util::parallelChunks(static_cast<std::size_t>(n), threads,
                       [&](std::size_t begin, std::size_t end, unsigned) {
                         for (std::size_t v = begin; v < end; ++v) {
                           khop[v] = kHopNeighborhood(out.udg, static_cast<int>(v), 2);
                         }
                       });

  const auto udgEdges = out.udg.edges();
  std::vector<std::vector<std::pair<int, int>>> gabrielPerChunk(threads);
  util::parallelChunks(
      udgEdges.size(), threads, [&](std::size_t begin, std::size_t end, unsigned chunk) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [u, v] = udgEdges[e];
          const Vec2 pu = points[static_cast<std::size_t>(u)];
          const Vec2 pv = points[static_cast<std::size_t>(v)];
          bool empty = true;
          for (int w : grid.queryRadius(geom::midpoint(pu, pv), gabrielQueryRadius(pu, pv))) {
            if (w == u || w == v) continue;
            if (inDiametralCircleExact(pu, pv, points[static_cast<std::size_t>(w)])) {
              empty = false;
              break;
            }
          }
          if (empty) gabrielPerChunk[chunk].emplace_back(std::min(u, v), std::max(u, v));
        }
      });
  for (const auto& list : gabrielPerChunk) {
    for (const auto& [u, v] : list) {
      out.gabrielEdges.emplace_back(u, v);
      out.graph.addEdge(u, v);
    }
  }

  std::vector<std::vector<std::array<int, 3>>> triPerChunk(threads);
  util::parallelChunks(
      static_cast<std::size_t>(n), threads,
      [&](std::size_t begin, std::size_t end, unsigned chunk) {
        for (std::size_t uu = begin; uu < end; ++uu) {
          const int u = static_cast<int>(uu);
          const auto nbrs = out.udg.neighbors(u);
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const int v = nbrs[i];
            if (v < u) continue;
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
              const int w = nbrs[j];
              if (w < u || !out.udg.hasEdge(v, w)) continue;
              const int lo = std::min(v, w);
              const int hi = std::max(v, w);
              const Vec2 pu = points[static_cast<std::size_t>(u)];
              const Vec2 pv = points[static_cast<std::size_t>(lo)];
              const Vec2 pw = points[static_cast<std::size_t>(hi)];
              bool empty = true;
              for (const int base : {u, lo, hi}) {
                for (int x : khop[static_cast<std::size_t>(base)]) {
                  if (x == u || x == lo || x == hi) continue;
                  if (circumcircleContains(pu, pv, pw, points[static_cast<std::size_t>(x)])) {
                    empty = false;
                    break;
                  }
                }
                if (!empty) break;
              }
              if (empty) triPerChunk[chunk].push_back({u, lo, hi});
            }
          }
        }
      });
  for (const auto& list : triPerChunk) {
    for (const auto& t : list) {
      out.triangles.push_back(t);
      out.graph.addEdge(t[0], t[1]);
      out.graph.addEdge(t[0], t[2]);
      out.graph.addEdge(t[1], t[2]);
    }
  }

  std::unordered_set<long long> gabriel;
  for (const auto& [u, v] : out.gabrielEdges) gabriel.insert(static_cast<long long>(u) * n + v);
  auto isGabriel = [&](int u, int v) {
    if (u > v) std::swap(u, v);
    return gabriel.contains(static_cast<long long>(u) * n + v);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const auto edges = out.graph.edges();
    std::vector<Vec2> mids;
    mids.reserve(edges.size());
    for (const auto& [u, v] : edges) {
      mids.push_back(geom::midpoint(points[static_cast<std::size_t>(u)],
                                    points[static_cast<std::size_t>(v)]));
    }
    const HashGrid midGrid(mids, opts.radius);
    for (std::size_t a = 0; a < edges.size() && !changed; ++a) {
      const geom::Segment sa{points[static_cast<std::size_t>(edges[a].first)],
                             points[static_cast<std::size_t>(edges[a].second)]};
      for (int bi : midGrid.neighborsOf(static_cast<int>(a), opts.radius)) {
        const auto b = static_cast<std::size_t>(bi);
        if (b <= a) continue;
        if (edges[a].first == edges[b].first || edges[a].first == edges[b].second ||
            edges[a].second == edges[b].first || edges[a].second == edges[b].second) {
          continue;
        }
        const geom::Segment sb{points[static_cast<std::size_t>(edges[b].first)],
                               points[static_cast<std::size_t>(edges[b].second)]};
        if (!geom::segmentsCrossProperly(sa, sb)) continue;
        const bool dropA = !isGabriel(edges[a].first, edges[a].second) &&
                           (isGabriel(edges[b].first, edges[b].second) ||
                            sa.length() >= sb.length());
        const auto& victim = dropA ? edges[a] : edges[b];
        out.graph.removeEdge(victim.first, victim.second);
        ++out.removedCrossings;
        changed = true;
        break;
      }
    }
  }
  return out;
}

}  // namespace hybrid::testkit
