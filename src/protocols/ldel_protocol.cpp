#include "protocols/ldel_protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

#include "geom/angle.hpp"
#include "geom/circumcircle.hpp"
#include "geom/predicates.hpp"
#include "graph/planar_faces.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "protocols/reliable.hpp"

namespace hybrid::protocols {

namespace {

constexpr int kHello = 40;     // reals: [x, y]
constexpr int kNeighbors = 41; // ids + reals: [x1.., y1..]
constexpr int kProposals = 42; // ints: [a1, b1, a2, b2, ...] triangles (self, a, b)

constexpr std::uint8_t kHeardHello = 1;
constexpr std::uint8_t kHeardList = 2;
constexpr std::uint8_t kAllCorners = 7;

using Triangle = std::array<int, 3>;
using ViewEntry = std::pair<int, geom::Vec2>;

Triangle sortedTriangle(int a, int b, int c) {
  Triangle tri{a, b, c};
  std::sort(tri.begin(), tri.end());
  return tri;
}

// A triangle this node proposed, as sorted corners, and the corners that
// confirmed it (bit i stands for tri[i]; the node's own bit included).
struct Proposal {
  Triangle tri;
  std::uint8_t corners = 0;
};

struct NodeState {
  std::vector<int> neighbors;     // 1-hop ids, in UDG order
  std::vector<geom::Vec2> nbPos;  // neighbors[i]'s position, from its hello
  // Event-driven phase tracking: a node advances when it heard from all
  // of its neighbors, not on a fixed round number, so the protocol also
  // completes on lossy channels (with the reliable transport underneath).
  // Per-neighbor flags keep the counts idempotent under duplicated delivery.
  std::vector<std::uint8_t> heard;  // kHeardHello | kHeardList per neighbor
  std::size_t hellos = 0;
  std::size_t lists = 0;
  int phase = 0;  // 0: collecting hellos, 1: collecting lists, 2: done
  // 2-hop view: (id, position) sorted by id, without duplicates. Merged as
  // the lists arrive, freed once the node has proposed.
  std::vector<ViewEntry> view;
  std::vector<Proposal> proposed;  // sorted by triangle
  // Confirmations that arrived before this node proposed: (triangle, sender).
  std::vector<std::pair<Triangle, int>> early;
  std::vector<std::pair<int, int>> gabriel;  // (self, nb) Gabriel edges
};

// Merges the entries appended to `view` from `old` on into its sorted,
// duplicate-free prefix.
void mergeIntoView(std::vector<ViewEntry>& view, std::size_t old) {
  const auto byId = [](const ViewEntry& a, const ViewEntry& b) { return a.first < b.first; };
  const auto sameId = [](const ViewEntry& a, const ViewEntry& b) { return a.first == b.first; };
  const auto mid = view.begin() + static_cast<std::ptrdiff_t>(old);
  std::sort(mid, view.end(), byId);
  std::inplace_merge(view.begin(), mid, view.end(), byId);
  view.erase(std::unique(view.begin(), view.end(), sameId), view.end());
}

// The bit of `corner`, one of the corners of `tri`, in a corner mask.
std::uint8_t cornerBit(const Triangle& tri, int corner) {
  return tri[0] == corner ? 1 : tri[1] == corner ? 2 : 4;
}

// Records `corner`'s confirmation of `tri`. A triangle this node did not
// propose never survives here, so its confirmations are dropped.
void confirm(NodeState& s, const Triangle& tri, int corner) {
  const auto it = std::ranges::lower_bound(s.proposed, tri, {}, &Proposal::tri);
  if (it != s.proposed.end() && it->tri == tri) it->corners |= cornerBit(tri, corner);
}

// True if all three corners of `tri`, one of them this node, proposed it.
bool survives(const NodeState& s, const Triangle& tri) {
  const auto it = std::ranges::lower_bound(s.proposed, tri, {}, &Proposal::tri);
  return it != s.proposed.end() && it->tri == tri && it->corners == kAllCorners;
}

class LdelProtocol : public sim::Protocol {
 public:
  LdelProtocol(std::vector<NodeState>& st, double radius) : st_(st), radius_(radius) {}

  void onStart(sim::Context& ctx) override {
    NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
    const auto nbs = ctx.udgNeighbors();
    s.neighbors.assign(nbs.begin(), nbs.end());
    s.nbPos.resize(nbs.size());
    s.heard.assign(nbs.size(), 0);
    for (int nb : s.neighbors) {
      sim::Message m;
      m.type = kHello;
      m.reals = {ctx.position().x, ctx.position().y};
      ctx.sendAdHoc(nb, std::move(m));
    }
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
    switch (m.type) {
      case kHello: {
        const std::size_t i = slotOf(s, m.from);
        if (i == s.neighbors.size()) break;
        s.nbPos[i] = {m.reals[0], m.reals[1]};
        if ((s.heard[i] & kHeardHello) == 0) {
          s.heard[i] |= kHeardHello;
          ++s.hellos;
        }
        break;
      }
      case kNeighbors: {
        const std::size_t i = slotOf(s, m.from);
        if (i == s.neighbors.size()) break;
        if (s.phase < 2) {
          const std::size_t k = m.ids.size();
          const std::size_t old = s.view.size();
          for (std::size_t j = 0; j < k; ++j) {
            s.view.emplace_back(m.ids[j], geom::Vec2{m.reals[j], m.reals[k + j]});
          }
          mergeIntoView(s.view, old);
        }
        if ((s.heard[i] & kHeardList) == 0) {
          s.heard[i] |= kHeardList;
          ++s.lists;
        }
        break;
      }
      case kProposals: {
        for (std::size_t i = 0; i + 1 < m.ints.size(); i += 2) {
          const int a = static_cast<int>(m.ints[i]);
          const int b = static_cast<int>(m.ints[i + 1]);
          const Triangle tri = sortedTriangle(m.from, a, b);
          if (s.phase < 2) {
            s.early.emplace_back(tri, m.from);
          } else {
            confirm(s, tri, m.from);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  void onRoundEnd(sim::Context& ctx) override {
    NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (s.phase == 0 && s.hellos == s.neighbors.size()) {
      // Forward the freshly learned neighbor list (ids + coordinates).
      sim::Message m;
      m.type = kNeighbors;
      m.ids.assign(s.neighbors.begin(), s.neighbors.end());
      m.reals.reserve(2 * s.nbPos.size());
      for (const geom::Vec2& p : s.nbPos) m.reals.push_back(p.x);
      for (const geom::Vec2& p : s.nbPos) m.reals.push_back(p.y);
      for (int nb : s.neighbors) ctx.sendAdHoc(nb, m);
      // The node's own neighbors belong to its 2-hop view too.
      const std::size_t old = s.view.size();
      for (std::size_t i = 0; i < s.neighbors.size(); ++i) {
        s.view.emplace_back(s.neighbors[i], s.nbPos[i]);
      }
      mergeIntoView(s.view, old);
      s.phase = 1;
    }
    if (s.phase == 1 && s.lists == s.neighbors.size()) {
      computeLocalProposals(ctx, s);
      // Send each neighbor the proposals that involve it.
      for (int nb : s.neighbors) {
        sim::Message m;
        m.type = kProposals;
        for (const Proposal& p : s.proposed) {
          const Triangle& tri = p.tri;
          if (tri[0] != nb && tri[1] != nb && tri[2] != nb) continue;
          // Encode the two corners besides the sender.
          for (int c : tri) {
            if (c != ctx.self()) m.ints.push_back(c);
          }
        }
        if (!m.ints.empty()) ctx.sendAdHoc(nb, std::move(m));
      }
      s.phase = 2;
    }
  }

 private:
  // Index of `id` in the node's neighbor list; its size when `id` is not a
  // neighbor (only a node whose onStart did not run, being down in round 0,
  // has no list, and such a node proposes nothing either way).
  static std::size_t slotOf(const NodeState& s, int id) {
    const auto it = std::find(s.neighbors.begin(), s.neighbors.end(), id);
    return static_cast<std::size_t>(it - s.neighbors.begin());
  }

  void computeLocalProposals(sim::Context& ctx, NodeState& s) {
    const int self = ctx.self();
    const geom::Vec2 ps = ctx.position();
    // Triangles: pairs of adjacent neighbors whose circumcircle is empty
    // of every known (2-hop) node, visited in id order.
    for (std::size_t i = 0; i < s.neighbors.size(); ++i) {
      const int v = s.neighbors[i];
      const geom::Vec2 pv = s.nbPos[i];
      for (std::size_t j = i + 1; j < s.neighbors.size(); ++j) {
        const int w = s.neighbors[j];
        const geom::Vec2 pw = s.nbPos[j];
        if (geom::dist(pv, pw) > radius_) continue;  // not a UDG triangle
        const int o = geom::orient(ps, pv, pw);
        if (o == 0) continue;
        const geom::Circumcircle circle(ps, pv, pw, o);
        bool empty = true;
        for (const auto& [x, px] : s.view) {
          if (x == self || x == v || x == w) continue;
          if (circle.contains(px)) {
            empty = false;
            break;
          }
        }
        if (empty) {
          const Triangle tri = sortedTriangle(self, v, w);
          s.proposed.push_back({tri, cornerBit(tri, self)});  // own confirmation
        }
      }
    }
    std::ranges::sort(s.proposed, {}, &Proposal::tri);
    for (const auto& [tri, corner] : s.early) confirm(s, tri, corner);
    s.early.clear();
    s.early.shrink_to_fit();
    s.view.clear();
    s.view.shrink_to_fit();
    // Gabriel edges: any violator of the diametral circle of (self, v) is
    // closer to both endpoints than |self v|, hence a common neighbor.
    for (std::size_t i = 0; i < s.neighbors.size(); ++i) {
      bool empty = true;
      for (std::size_t j = 0; j < s.neighbors.size(); ++j) {
        if (j == i) continue;
        if (geom::inDiametralCircle(ps, s.nbPos[i], s.nbPos[j])) {
          empty = false;
          break;
        }
      }
      if (empty) s.gabriel.emplace_back(self, s.neighbors[i]);
    }
  }

  std::vector<NodeState>& st_;
  double radius_;
};

}  // namespace

DistributedLdel runLdelConstruction(sim::Simulator& simulator, double radius,
                                    const RetryPolicy* retry) {
  obs::ScopedSpan span("proto.ldel");
  std::vector<NodeState> st(simulator.numNodes());
  LdelProtocol proto(st, radius);
  DistributedLdel out;
  ReliableStats transport;
  out.rounds = runProtocol(simulator, proto, retry != nullptr, &transport);
  out.retransmissions = transport.retransmissions;
  out.messages = simulator.totalMessages();
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("proto.ldel.runs").add(1);
    reg.counter("proto.ldel.rounds").add(static_cast<std::uint64_t>(out.rounds));
    reg.counter("proto.ldel.messages").add(static_cast<std::uint64_t>(out.messages));
  });

  obs::ScopedSpan assembleSpan("assemble");
  out.graph = graph::GeometricGraph(simulator.udg().positions());
  // Gabriel edges (both endpoints computed them identically).
  for (const auto& s : st) {
    for (const auto& [u, v] : s.gabriel) out.graph.addEdge(u, v);
  }
  // Triangles confirmed by all three corners, in sorted order per node.
  for (const auto& s : st) {
    for (const Proposal& p : s.proposed) {
      if (p.corners != kAllCorners) continue;
      out.graph.addEdge(p.tri[0], p.tri[1]);
      out.graph.addEdge(p.tri[0], p.tri[2]);
      out.graph.addEdge(p.tri[1], p.tri[2]);
    }
  }

  // Local boundary detection: angular gaps not covered by a surviving
  // triangle. (Gabriel edges alone do not close a wedge: a face all of
  // whose corners are triangles is a triangle face.)
  out.isBoundary.assign(st.size(), 0);
  out.gaps.assign(st.size(), {});
  std::vector<int> spokes;
  for (std::size_t vi = 0; vi < st.size(); ++vi) {
    const int v = static_cast<int>(vi);
    auto nbrs = out.graph.neighbors(v);
    if (nbrs.size() < 2) {
      out.isBoundary[vi] = 1;
      continue;
    }
    const geom::Vec2 pv = out.graph.position(v);
    spokes.assign(nbrs.begin(), nbrs.end());
    graph::sortCcw(out.graph, v, spokes);
    if (spokes.size() == 2) {
      // Two neighbors span two wedges with the same (unordered) triple; a
      // triangle can cover at most one of them, so the node is always on
      // a boundary. Identify the covered wedge (if any) by the direction
      // of the triangle's centroid, and report the uncovered wedge(s) as
      // gaps, oriented (cw neighbor, ccw neighbor).
      out.isBoundary[vi] = 1;
      const int n0 = spokes[0];
      const int n1 = spokes[1];
      if (survives(st[vi], sortedTriangle(v, n0, n1))) {
        const geom::Vec2 pa = out.graph.position(n0);
        const geom::Vec2 pb = out.graph.position(n1);
        const geom::Vec2 centroid = (pv + pa + pb) / 3.0;
        const double a0 = geom::directionAngle(pv, pa);
        const double a1 = geom::directionAngle(pv, pb);
        const double ac = geom::directionAngle(pv, centroid);
        // Is the centroid inside the ccw wedge from n0 to n1?
        const auto inCcwWedge = [](double from, double to, double x) {
          auto norm = [](double t) {
            const double twoPi = 2.0 * 3.141592653589793;
            while (t < 0) t += twoPi;
            while (t >= twoPi) t -= twoPi;
            return t;
          };
          return norm(x - from) <= norm(to - from);
        };
        if (inCcwWedge(a0, a1, ac)) {
          out.gaps[vi].push_back({n1, n0});
        } else {
          out.gaps[vi].push_back({n0, n1});
        }
      } else {
        out.gaps[vi].push_back({n0, n1});
        out.gaps[vi].push_back({n1, n0});
      }
      continue;
    }
    for (std::size_t i = 0; i < spokes.size(); ++i) {
      const int a = spokes[i];
      const int b = spokes[(i + 1) % spokes.size()];
      if (!survives(st[vi], sortedTriangle(v, a, b))) {
        out.isBoundary[vi] = 1;
        out.gaps[vi].push_back({a, b});
      }
    }
  }
  return out;
}

std::vector<std::vector<int>> deriveOuterHoleRings(
    const std::vector<int>& outerRing, const std::vector<int>& hullNodes,
    const graph::GeometricGraph& positions, double radius) {
  std::vector<std::vector<int>> out;
  if (outerRing.size() < 3 || hullNodes.size() < 2) return out;
  const std::set<int> hullSet(hullNodes.begin(), hullNodes.end());

  // Indices of hull nodes along the outer ring walk.
  std::vector<std::size_t> hullIdx;
  for (std::size_t i = 0; i < outerRing.size(); ++i) {
    if (hullSet.contains(outerRing[i])) hullIdx.push_back(i);
  }
  if (hullIdx.size() < 2) return out;

  const std::size_t n = outerRing.size();
  for (std::size_t j = 0; j < hullIdx.size(); ++j) {
    const std::size_t from = hullIdx[j];
    const std::size_t to = hullIdx[(j + 1) % hullIdx.size()];
    const int a = outerRing[from];
    const int b = outerRing[to];
    if (positions.edgeLength(a, b) <= radius) continue;  // short hull edge: no hole
    std::vector<int> arc;
    for (std::size_t i = from; i != to; i = (i + 1) % n) arc.push_back(outerRing[i]);
    arc.push_back(b);
    if (arc.size() < 3) continue;
    // The outer boundary walks clockwise around the network, which is
    // counter-clockwise around each pocket it wraps — the arc closed by
    // the hull chord already has hole orientation (+2*pi), like inner
    // hole rings.
    out.push_back(std::move(arc));
  }
  return out;
}

std::vector<std::vector<int>> assembleRingsFromGaps(const DistributedLdel& ldel) {
  // A gap (a, b) at v means the uncovered face's boundary walk passes
  // b -> v -> a (interior on the left): v's ring successor is the gap's cw
  // neighbor a, and its predecessor the ccw neighbor b. Follow successors;
  // at the next node, the matching gap is the one whose ccw neighbor is
  // the node we came from.
  std::vector<std::vector<int>> rings;
  std::set<std::pair<int, int>> used;  // (node, succ) pairs already stitched
  for (std::size_t vi = 0; vi < ldel.gaps.size(); ++vi) {
    for (const auto& gap : ldel.gaps[vi]) {
      const int start = static_cast<int>(vi);
      if (used.contains({start, gap[0]})) continue;
      std::vector<int> ring;
      int cur = start;
      int succ = gap[0];
      bool ok = true;
      for (std::size_t guard = 0; guard <= ldel.gaps.size() * 4; ++guard) {
        used.insert({cur, succ});
        ring.push_back(cur);
        // Arrived at succ coming from cur: find its gap with pred == cur.
        const int prev = cur;
        cur = succ;
        succ = -1;
        for (const auto& g : ldel.gaps[static_cast<std::size_t>(cur)]) {
          if (g[1] == prev) {
            succ = g[0];
            break;
          }
        }
        if (succ < 0) {
          ok = false;
          break;
        }
        if (cur == start && succ == gap[0]) break;  // ring closed
      }
      if (ok && ring.size() >= 3) rings.push_back(std::move(ring));
    }
  }
  return rings;
}

}  // namespace hybrid::protocols
