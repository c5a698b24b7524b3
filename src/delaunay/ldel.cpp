#include "delaunay/ldel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "delaunay/udg.hpp"
#include "geom/bbox.hpp"
#include "geom/circumcircle.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "graph/shortest_path.hpp"
#include "obs/span.hpp"
#include "spatial/grid_index.hpp"
#include "util/parallel.hpp"

namespace hybrid::delaunay {

namespace {

using geom::Vec2;

// Hop locality of the triangle emptiness test: LDel^2 is the k = 2 case of
// Def. 2.3, the smallest k for which Li et al. prove the graph planar.
constexpr int kHops = 2;

// Slack for a grid query around the rounded midpoint of (pu, pv) whose
// exact radius is at most `extent`. The rounded midpoint is off by up to
// half an ulp of the coordinates per axis, and the rounded lengths, the
// query radius and the grid's squared-distance filter each lose a few
// relative ulps. 32 epsilons of the coordinates' and the extent's
// magnitude cover both with a wide margin; a fixed absolute slack stops
// covering the midpoint's rounding at coordinates near 1e5.
double midpointSlack(Vec2 pu, Vec2 pv, double extent) {
  const double scale =
      std::max({std::fabs(pu.x), std::fabs(pu.y), std::fabs(pv.x), std::fabs(pv.y)});
  return 32.0 * std::numeric_limits<double>::epsilon() * (scale + extent) + 1e-12;
}

// Radius around the rounded midpoint of (pu, pv) that holds every point
// strictly inside their diametral circle.
double gabrielQueryRadius(Vec2 pu, Vec2 pv) {
  const double half = geom::dist(pu, pv) / 2.0;
  return half + midpointSlack(pu, pv, half);
}

// Generation-stamped marks over the nodes: mark() and marked() refer to the
// current generation, and next() clears all marks, in O(1) until the
// counter wraps. One per chunk.
class NodeMarks {
 public:
  explicit NodeMarks(std::size_t n) : stamp_(n, 0) {}
  void next() {
    if (++gen_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      gen_ = 1;
    }
  }
  void mark(int v) { stamp_[static_cast<std::size_t>(v)] = gen_; }
  bool marked(int v) const { return stamp_[static_cast<std::size_t>(v)] == gen_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t gen_ = 1;
};

}  // namespace

bool qudgLinkDropped(int u, int v, unsigned seed, double p) {
  if (u > v) std::swap(u, v);
  std::uint64_t x = (static_cast<std::uint64_t>(seed) << 40) ^
                    (static_cast<std::uint64_t>(u) << 20) ^
                    static_cast<std::uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 32;
  const double r = static_cast<double>(x & 0xFFFFFFFFULL) / 4294967296.0;
  return r < p;
}

LocalizedDelaunay buildLocalizedDelaunay(const std::vector<geom::Vec2>& points,
                                         const LDelOptions& opts) {
  // Phase spans open on the calling thread; worker chunks add none.
  obs::ScopedSpan buildSpan("ldel.build");
  LocalizedDelaunay out;
  {
    obs::ScopedSpan span("udg");
    out.udg = buildUnitDiskGraph(points, opts.radius);
    if (opts.dropProbability > 0.0 && opts.reliableRadius < opts.radius) {
      for (const auto& [u, v] : out.udg.edges()) {
        if (out.udg.edgeLength(u, v) > opts.reliableRadius &&
            qudgLinkDropped(u, v, opts.dropSeed, opts.dropProbability)) {
          out.udg.removeEdge(u, v);
        }
      }
    }
  }
  out.graph = graph::GeometricGraph(points);

  const int n = static_cast<int>(points.size());
  const unsigned threads = util::resolveThreads(opts.threads);

  // Gabriel edges: UDG edges whose diametral circle is empty. Only nodes
  // within ||uv||/2 of the midpoint can violate emptiness (see
  // gabrielQueryRadius for the rounding slack).
  {
    obs::ScopedSpan span("gabriel");
    const spatial::GridIndex grid(points, opts.radius);
    const auto udgEdges = out.udg.edges();
    std::vector<std::vector<std::pair<int, int>>> gabrielPerChunk(threads);
    util::parallelChunks(
        udgEdges.size(), threads, [&](std::size_t begin, std::size_t end, unsigned chunk) {
          for (std::size_t e = begin; e < end; ++e) {
            const auto [u, v] = udgEdges[e];
            const Vec2 pu = points[static_cast<std::size_t>(u)];
            const Vec2 pv = points[static_cast<std::size_t>(v)];
            const bool empty = grid.forEachWithin(
                geom::midpoint(pu, pv), gabrielQueryRadius(pu, pv), [&](int w) {
                  return w == u || w == v ||
                         !geom::inDiametralCircle(pu, pv, points[static_cast<std::size_t>(w)]);
                });
            if (empty) gabrielPerChunk[chunk].emplace_back(u, v);
          }
        });
    for (const auto& list : gabrielPerChunk) {
      for (const auto& [u, v] : list) {
        out.gabrielEdges.emplace_back(u, v);
        out.graph.addEdge(u, v);
      }
    }
  }

  // 2-hop neighborhoods (including the node itself), in BFS order.
  std::vector<std::vector<int>> khop(static_cast<std::size_t>(n));
  {
    obs::ScopedSpan span("khop");
    util::parallelChunks(static_cast<std::size_t>(n), threads,
                         [&](std::size_t begin, std::size_t end, unsigned) {
                           for (std::size_t v = begin; v < end; ++v) {
                             khop[v] = graph::kHopNeighborhood(
                                 out.udg, static_cast<int>(v), kHops);
                           }
                         });
  }

  // 2-localized triangles: all UDG triangles (u, v, w) whose circumcircle
  // contains no node of N_2(u) u N_2(v) u N_2(w). Each candidate is tested
  // once per triangle, u's neighbourhood first (in BFS order, so u's own
  // neighbours lead): a witness usually sits next to the triangle.
  {
    obs::ScopedSpan span("triangles");
    std::vector<std::vector<std::array<int, 3>>> triPerChunk(threads);
    util::parallelChunks(
        static_cast<std::size_t>(n), threads,
        [&](std::size_t begin, std::size_t end, unsigned chunk) {
          NodeMarks adjacent(static_cast<std::size_t>(n));  // neighbours of v
          NodeMarks tested(static_cast<std::size_t>(n));    // this triangle's candidates
          for (std::size_t uu = begin; uu < end; ++uu) {
            const int u = static_cast<int>(uu);
            const auto nbrs = out.udg.neighbors(u);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
              const int v = nbrs[i];
              if (v < u) continue;
              adjacent.next();
              for (const int x : out.udg.neighbors(v)) adjacent.mark(x);
              for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
                const int w = nbrs[j];
                if (w < u || !adjacent.marked(w)) continue;
                // Now u < v and u < w; dedupe by requiring v < w.
                const int lo = std::min(v, w);
                const int hi = std::max(v, w);

                const Vec2 pu = points[static_cast<std::size_t>(u)];
                const Vec2 pv = points[static_cast<std::size_t>(lo)];
                const Vec2 pw = points[static_cast<std::size_t>(hi)];
                // A degenerate triangle counts as empty.
                const int o = geom::orient(pu, pv, pw);
                bool empty = true;
                if (o != 0) {
                  const geom::Circumcircle circle(pu, pv, pw, o);
                  tested.next();
                  tested.mark(u);
                  tested.mark(lo);
                  tested.mark(hi);
                  for (const int base : {u, lo, hi}) {
                    for (const int x : khop[static_cast<std::size_t>(base)]) {
                      if (tested.marked(x)) continue;
                      tested.mark(x);
                      if (circle.contains(points[static_cast<std::size_t>(x)])) {
                        empty = false;
                        break;
                      }
                    }
                    if (!empty) break;
                  }
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
  }
  // Release the 2-hop sets before the planarizer allocates its own.
  khop.clear();
  khop.shrink_to_fit();

  {
    obs::ScopedSpan span("planarize");
    // LDel^2 is planar (Li et al.) in general position. On
    // degenerate input it is not: the Gabriel and circumcircle tests are
    // strict, so both diagonals of a cocircular quad survive, and this pass
    // removes one of them. Crossing pairs are resolved by dropping the
    // longer non-Gabriel edge, taking the first crossing pair in the scan
    // order (edges in graph order, then partners in midpoint-grid order)
    // and rescanning after each removal.
    std::unordered_set<long long> gabriel;
    for (const auto& [u, v] : out.gabrielEdges) {
      gabriel.insert(static_cast<long long>(u) * n + v);
    }
    auto isGabriel = [&](int u, int v) {
      if (u > v) std::swap(u, v);
      return gabriel.contains(static_cast<long long>(u) * n + v);
    };
    bool changed = true;
    while (changed) {
      changed = false;
      const auto edges = out.graph.edges();
      // Two edges can only cross when their midpoints are closer than half
      // their summed lengths, and edges are at most `radius` long; index
      // midpoints on a grid and look within (own length + longest)/2 of
      // each, capped at `radius`. The partners found keep the grid order
      // of a `radius` query. Edges whose bounding boxes are disjoint
      // cannot cross.
      std::vector<Vec2> mids;
      mids.reserve(edges.size());
      double longest = 0.0;
      for (const auto& [u, v] : edges) {
        const Vec2 pu = points[static_cast<std::size_t>(u)];
        const Vec2 pv = points[static_cast<std::size_t>(v)];
        mids.push_back(geom::midpoint(pu, pv));
        longest = std::max(longest, geom::dist(pu, pv));
      }
      const spatial::GridIndex midGrid(mids, opts.radius);
      for (std::size_t a = 0; a < edges.size() && !changed; ++a) {
        const auto [a0, a1] = edges[a];
        const geom::Segment sa{points[static_cast<std::size_t>(a0)],
                               points[static_cast<std::size_t>(a1)]};
        const auto boxA = geom::BBox::of(std::array{sa.a, sa.b});
        const double reach = std::min(
            opts.radius, (sa.length() + longest) / 2.0 + midpointSlack(sa.a, sa.b, 2.0 * longest));
        midGrid.forEachWithin(
            mids[a], reach,
            [&](int b) {
              const auto [b0, b1] = edges[static_cast<std::size_t>(b)];
              if (a0 == b0 || a0 == b1 || a1 == b0 || a1 == b1) return true;
              const geom::Segment sb{points[static_cast<std::size_t>(b0)],
                                     points[static_cast<std::size_t>(b1)]};
              if (!boxA.intersects(geom::BBox::of(std::array{sb.a, sb.b})) ||
                  !geom::segmentsCrossProperly(sa, sb)) {
                return true;
              }
              const bool dropA =
                  !isGabriel(a0, a1) && (isGabriel(b0, b1) || sa.length() >= sb.length());
              const auto& victim = dropA ? edges[a] : edges[static_cast<std::size_t>(b)];
              out.graph.removeEdge(victim.first, victim.second);
              ++out.removedCrossings;
              changed = true;
              return false;
            },
            static_cast<int>(a));
      }
    }
  }
  return out;
}

}  // namespace hybrid::delaunay
