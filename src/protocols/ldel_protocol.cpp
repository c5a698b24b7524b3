#include "protocols/ldel_protocol.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "geom/angle.hpp"
#include "geom/predicates.hpp"
#include "obs/metrics.hpp"
#include "protocols/reliable.hpp"

namespace hybrid::protocols {

namespace {

constexpr int kHello = 40;     // reals: [x, y]
constexpr int kNeighbors = 41; // ids + reals: [x1.., y1..]
constexpr int kProposals = 42; // ints: [a1, b1, a2, b2, ...] triangles (self, a, b)

struct NodeState {
  // 2-hop knowledge: id -> position.
  std::map<int, geom::Vec2> known;
  std::vector<int> neighbors;  // 1-hop ids
  // Event-driven phase tracking: a node advances when it heard from all
  // of its neighbors, not on a fixed round number, so the protocol also
  // completes on lossy channels (with the reliable transport underneath).
  std::set<int> helloFrom;
  std::set<int> listFrom;
  int phase = 0;  // 0: collecting hellos, 1: collecting lists, 2: done
  // Triangles this node proposes / confirms, as sorted corner triples.
  std::set<std::array<int, 3>> proposed;
  // Corners that confirmed each triangle (set-based: idempotent under
  // duplicated delivery).
  std::map<std::array<int, 3>, std::set<int>> confirmations;
  std::vector<std::pair<int, int>> gabriel;  // (self, nb) Gabriel edges
};

class LdelProtocol : public sim::Protocol {
 public:
  LdelProtocol(std::vector<NodeState>& st, double radius) : st_(st), radius_(radius) {}

  void onStart(sim::Context& ctx) override {
    NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
    s.known[ctx.self()] = ctx.position();
    for (int nb : ctx.udgNeighbors()) {
      s.neighbors.push_back(nb);
      sim::Message m;
      m.type = kHello;
      m.reals = {ctx.position().x, ctx.position().y};
      ctx.sendAdHoc(nb, std::move(m));
    }
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
    switch (m.type) {
      case kHello:
        s.known[m.from] = {m.reals[0], m.reals[1]};
        s.helloFrom.insert(m.from);
        break;
      case kNeighbors: {
        const std::size_t k = m.ids.size();
        for (std::size_t i = 0; i < k; ++i) {
          s.known.emplace(m.ids[i], geom::Vec2{m.reals[i], m.reals[k + i]});
        }
        s.listFrom.insert(m.from);
        break;
      }
      case kProposals: {
        for (std::size_t i = 0; i + 1 < m.ints.size(); i += 2) {
          std::array<int, 3> tri{m.from, static_cast<int>(m.ints[i]),
                                 static_cast<int>(m.ints[i + 1])};
          std::sort(tri.begin(), tri.end());
          s.confirmations[tri].insert(m.from);
        }
        break;
      }
      default:
        break;
    }
  }

  void onRoundEnd(sim::Context& ctx) override {
    NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (s.phase == 0 && s.helloFrom.size() == s.neighbors.size()) {
      // Forward the freshly learned neighbor list (ids + coordinates).
      sim::Message m;
      m.type = kNeighbors;
      for (int nb : s.neighbors) {
        m.ids.push_back(nb);
        m.reals.push_back(s.known.at(nb).x);
      }
      for (int nb : s.neighbors) m.reals.push_back(s.known.at(nb).y);
      for (int nb : s.neighbors) ctx.sendAdHoc(nb, m);
      s.phase = 1;
    }
    if (s.phase == 1 && s.listFrom.size() == s.neighbors.size()) {
      computeLocalProposals(ctx, s);
      // Send each neighbor the proposals that involve it.
      for (int nb : s.neighbors) {
        sim::Message m;
        m.type = kProposals;
        for (const auto& tri : s.proposed) {
          if (tri[0] != nb && tri[1] != nb && tri[2] != nb) continue;
          // Encode the two corners besides the sender.
          std::vector<int> others;
          for (int c : tri) {
            if (c != ctx.self()) others.push_back(c);
          }
          m.ints.push_back(others[0]);
          m.ints.push_back(others[1]);
        }
        if (!m.ints.empty()) ctx.sendAdHoc(nb, std::move(m));
      }
      s.phase = 2;
    }
  }

 private:
  void computeLocalProposals(sim::Context& ctx, NodeState& s) {
    const int self = ctx.self();
    const geom::Vec2 ps = ctx.position();
    // Triangles: pairs of adjacent neighbors whose circumcircle is empty
    // of every known (2-hop) node.
    for (std::size_t i = 0; i < s.neighbors.size(); ++i) {
      const int v = s.neighbors[i];
      const geom::Vec2 pv = s.known.at(v);
      for (std::size_t j = i + 1; j < s.neighbors.size(); ++j) {
        const int w = s.neighbors[j];
        const geom::Vec2 pw = s.known.at(w);
        if (geom::dist(pv, pw) > radius_) continue;  // not a UDG triangle
        const int o = geom::orient(ps, pv, pw);
        if (o == 0) continue;
        bool empty = true;
        for (const auto& [x, px] : s.known) {
          if (x == self || x == v || x == w) continue;
          const int ic = geom::inCircle(ps, pv, pw, px);
          if ((o > 0 ? ic : -ic) > 0) {
            empty = false;
            break;
          }
        }
        if (empty) {
          std::array<int, 3> tri{self, v, w};
          std::sort(tri.begin(), tri.end());
          s.proposed.insert(tri);
          s.confirmations[tri].insert(self);  // own confirmation
        }
      }
    }
    // Gabriel edges: any violator of the diametral circle of (self, v) is
    // closer to both endpoints than |self v|, hence a common neighbor.
    for (int v : s.neighbors) {
      const geom::Vec2 pv = s.known.at(v);
      bool empty = true;
      for (int w : s.neighbors) {
        if (w == v) continue;
        if (geom::inDiametralCircle(ps, pv, s.known.at(w))) {
          empty = false;
          break;
        }
      }
      if (empty) s.gabriel.emplace_back(self, v);
    }
  }

  std::vector<NodeState>& st_;
  double radius_;
};

}  // namespace

DistributedLdel runLdelConstruction(sim::Simulator& simulator, double radius,
                                    const RetryPolicy* retry) {
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

  out.graph = graph::GeometricGraph(simulator.udg().positions());
  // Gabriel edges (both endpoints computed them identically).
  for (const auto& s : st) {
    for (const auto& [u, v] : s.gabriel) out.graph.addEdge(u, v);
  }
  // Triangles confirmed by all three corners.
  std::vector<std::set<std::array<int, 3>>> surviving(st.size());
  for (std::size_t v = 0; v < st.size(); ++v) {
    for (const auto& [tri, corners] : st[v].confirmations) {
      if (corners.size() == 3 && st[v].proposed.contains(tri)) {
        surviving[v].insert(tri);
        out.graph.addEdge(tri[0], tri[1]);
        out.graph.addEdge(tri[0], tri[2]);
        out.graph.addEdge(tri[1], tri[2]);
      }
    }
  }

  // Local boundary detection: angular gaps not covered by a surviving
  // triangle. (Gabriel edges alone do not close a wedge: a face all of
  // whose corners are triangles is a triangle face.)
  out.isBoundary.assign(st.size(), 0);
  out.gaps.assign(st.size(), {});
  for (std::size_t vi = 0; vi < st.size(); ++vi) {
    const int v = static_cast<int>(vi);
    auto nbrs = out.graph.neighbors(v);
    if (nbrs.size() < 2) {
      out.isBoundary[vi] = 1;
      continue;
    }
    std::vector<int> sorted(nbrs.begin(), nbrs.end());
    const geom::Vec2 pv = out.graph.position(v);
    std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
      return geom::directionAngle(pv, out.graph.position(a)) <
             geom::directionAngle(pv, out.graph.position(b));
    });
    if (sorted.size() == 2) {
      // Two neighbors span two wedges with the same (unordered) triple; a
      // triangle can cover at most one of them, so the node is always on
      // a boundary. Identify the covered wedge (if any) by the direction
      // of the triangle's centroid, and report the uncovered wedge(s) as
      // gaps, oriented (cw neighbor, ccw neighbor).
      out.isBoundary[vi] = 1;
      std::array<int, 3> tri{v, sorted[0], sorted[1]};
      std::sort(tri.begin(), tri.end());
      if (surviving[vi].contains(tri)) {
        const geom::Vec2 pa = out.graph.position(sorted[0]);
        const geom::Vec2 pb = out.graph.position(sorted[1]);
        const geom::Vec2 centroid = (pv + pa + pb) / 3.0;
        const double a0 = geom::directionAngle(pv, pa);
        const double a1 = geom::directionAngle(pv, pb);
        const double ac = geom::directionAngle(pv, centroid);
        // Is the centroid inside the ccw wedge from sorted[0] to sorted[1]?
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
          out.gaps[vi].push_back({sorted[1], sorted[0]});
        } else {
          out.gaps[vi].push_back({sorted[0], sorted[1]});
        }
      } else {
        out.gaps[vi].push_back({sorted[0], sorted[1]});
        out.gaps[vi].push_back({sorted[1], sorted[0]});
      }
      continue;
    }
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const int a = sorted[i];
      const int b = sorted[(i + 1) % sorted.size()];
      std::array<int, 3> tri{v, a, b};
      std::sort(tri.begin(), tri.end());
      if (!surviving[vi].contains(tri)) {
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
