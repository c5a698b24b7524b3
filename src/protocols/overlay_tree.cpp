#include "protocols/overlay_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"

namespace hybrid::protocols {

namespace {

bool treeCoin(unsigned seed, int phase, int node) {
  std::uint64_t x = (static_cast<std::uint64_t>(seed) << 40) ^
                    (static_cast<std::uint64_t>(phase) << 20) ^
                    static_cast<std::uint64_t>(node);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return (x & 1) != 0;  // true = head (proposer)
}

struct TreeState {
  int parent = -1;
  std::vector<int> children;
  int clusterRoot = -1;  ///< Root id as known to this node.

  // Per-phase scratch.
  int candRoot = std::numeric_limits<int>::max();
  int candNeighbor = -1;
  int candMemberNeighbor = -1;  ///< Same, aggregated from the subtree.
  int candMember = -1;
  int childrenReported = 0;
  bool reported = false;
  bool merged = false;  ///< This root hung under another root this phase.
};

constexpr int kNbInfo = 10;      // ints: [clusterRoot]
constexpr int kReport = 11;      // ints: [candRoot, candMember, candNeighbor]
constexpr int kPropose = 12;     // ints: [proposerRoot, candNeighbor] -> member
constexpr int kProposeFwd = 13;  // ints: [proposerRoot] -> boundary neighbor
constexpr int kProposal = 14;    // ints: [proposerRoot] -> target root
constexpr int kAccept = 15;      // ints: [newRoot] -> proposer root
constexpr int kNewRoot = 16;     // ints: [newRoot] down the tree

class TreeBuild : public sim::Protocol {
 public:
  TreeBuild(std::vector<TreeState>& st, unsigned seed, int phases, int budget)
      : st_(st), seed_(seed), phases_(phases), budget_(budget) {}

  void onStart(sim::Context& ctx) override {
    TreeState& s = st_[static_cast<std::size_t>(ctx.self())];
    s.clusterRoot = ctx.self();
    beginPhase(ctx, s);
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    TreeState& s = st_[static_cast<std::size_t>(ctx.self())];
    switch (m.type) {
      case kNbInfo: {
        const int otherRoot = static_cast<int>(m.ints[0]);
        if (otherRoot != s.clusterRoot && otherRoot < s.candRoot) {
          s.candRoot = otherRoot;
          s.candMember = ctx.self();
          s.candNeighbor = m.from;
        }
        break;
      }
      case kReport: {
        const int rRoot = static_cast<int>(m.ints[0]);
        if (rRoot < s.candRoot) {
          s.candRoot = rRoot;
          s.candMember = static_cast<int>(m.ints[1]);
          s.candNeighbor = static_cast<int>(m.ints[2]);
        }
        ++s.childrenReported;
        maybeReportOrDecide(ctx, s);
        break;
      }
      case kPropose: {
        // We are the member adjacent to the other cluster: hand over.
        sim::Message fwd;
        fwd.type = kProposeFwd;
        fwd.ints = {m.ints[0], m.ints[2]};
        fwd.ids = {static_cast<int>(m.ints[0])};
        ctx.sendAdHoc(static_cast<int>(m.ints[1]), std::move(fwd));
        break;
      }
      case kProposeFwd: {
        if (s.clusterRoot == ctx.self()) {
          handleProposal(ctx, s, static_cast<int>(m.ints[0]), static_cast<int>(m.ints[1]));
          break;
        }
        sim::Message prop;
        prop.type = kProposal;
        prop.ints = {m.ints[0], m.ints[1]};
        prop.ids = {static_cast<int>(m.ints[0])};
        ctx.sendLongRange(s.clusterRoot, std::move(prop));
        break;
      }
      case kProposal:
        handleProposal(ctx, s, static_cast<int>(m.ints[0]), static_cast<int>(m.ints[1]));
        break;
      case kAccept: {
        // We proposed and were accepted: hang under the target root.
        s.parent = static_cast<int>(m.ints[0]);
        s.merged = true;
        broadcastNewRoot(ctx, s, s.parent);
        break;
      }
      case kNewRoot: {
        s.clusterRoot = static_cast<int>(m.ints[0]);
        broadcastNewRoot(ctx, s, s.clusterRoot);
        break;
      }
      default:
        break;
    }
  }

  void onRoundEnd(sim::Context& ctx) override {
    if (ctx.self() == 0) round_ = ctx.round();
    TreeState& s = st_[static_cast<std::size_t>(ctx.self())];
    const int t = ctx.round() % budget_;
    if (t == 0 && ctx.round() > 0 && ctx.round() < phases_ * budget_) {
      beginPhase(ctx, s);
    } else if (t == 1) {
      // Neighbor info arrived; leaves start the convergecast.
      maybeReportOrDecide(ctx, s);
    }
  }

  bool wantsMoreRounds() const override { return round_ < phases_ * budget_; }

 private:
  int phase(const sim::Context& ctx) const { return ctx.round() / budget_; }

  void beginPhase(sim::Context& ctx, TreeState& s) {
    s.candRoot = std::numeric_limits<int>::max();
    s.candMember = -1;
    s.candNeighbor = -1;
    s.childrenReported = 0;
    s.reported = false;
    s.merged = false;
    for (int nb : ctx.udgNeighbors()) {
      sim::Message m;
      m.type = kNbInfo;
      m.ints = {s.clusterRoot};
      m.ids = {s.clusterRoot};
      ctx.sendAdHoc(nb, std::move(m));
    }
  }

  void maybeReportOrDecide(sim::Context& ctx, TreeState& s) {
    if (s.reported || s.childrenReported < static_cast<int>(s.children.size())) return;
    s.reported = true;
    if (s.parent >= 0) {
      sim::Message m;
      m.type = kReport;
      m.ints = {s.candRoot, s.candMember, s.candNeighbor};
      if (s.candMember >= 0) m.ids = {s.candMember, s.candNeighbor};
      ctx.sendLongRange(s.parent, std::move(m));
      return;
    }
    // We are the root: decide.
    if (s.candMember < 0) return;  // no external cluster seen
    if (!treeCoin(seed_, phase(ctx), ctx.self())) return;  // tail: wait for proposals
    if (s.candMember == ctx.self()) {
      // The boundary member is the root itself: skip one hop.
      sim::Message fwd;
      fwd.type = kProposeFwd;
      fwd.ints = {ctx.self(), phase(ctx)};
      fwd.ids = {ctx.self()};
      ctx.sendAdHoc(s.candNeighbor, std::move(fwd));
      return;
    }
    sim::Message m;
    m.type = kPropose;
    m.ints = {ctx.self(), s.candNeighbor, phase(ctx)};
    m.ids = {ctx.self(), s.candNeighbor};
    ctx.sendLongRange(s.candMember, std::move(m));
  }

  void handleProposal(sim::Context& ctx, TreeState& s, int proposerRoot, int msgPhase) {
    if (s.parent >= 0 || s.merged) return;  // no longer a root / already moved
    if (treeCoin(seed_, msgPhase, ctx.self())) return;  // heads don't accept
    if (proposerRoot == ctx.self()) return;
    s.children.push_back(proposerRoot);
    sim::Message m;
    m.type = kAccept;
    m.ints = {ctx.self()};
    m.ids = {ctx.self()};
    ctx.sendLongRange(proposerRoot, std::move(m));
  }

  void broadcastNewRoot(sim::Context& ctx, TreeState& s, int newRoot) {
    s.clusterRoot = newRoot;
    for (int c : s.children) {
      sim::Message m;
      m.type = kNewRoot;
      m.ints = {newRoot};
      m.ids = {newRoot};
      ctx.sendLongRange(c, std::move(m));
    }
  }

  std::vector<TreeState>& st_;
  unsigned seed_;
  int phases_;
  int budget_;
  int round_ = 0;
};

// ---------------------------------------------------------------------------
// Hull info distribution over the finished tree.
// ---------------------------------------------------------------------------
struct DistState {
  int parent = -1;
  std::vector<int> children;
  int pending = 0;
  bool isHull = false;
  std::vector<int> collected;
  bool done = false;
};

constexpr int kUp = 20;    // ids: hull node ids collected in the subtree
constexpr int kDown = 21;  // ids: the full hull node list

class HullDistribution : public sim::Protocol {
 public:
  explicit HullDistribution(std::vector<DistState>& st) : st_(st) {}

  void onStart(sim::Context& ctx) override {
    DistState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (s.isHull) s.collected.push_back(ctx.self());
    maybeSendUp(ctx, s);
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    DistState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (m.type == kUp) {
      s.collected.insert(s.collected.end(), m.ids.begin(), m.ids.end());
      --s.pending;
      maybeSendUp(ctx, s);
    } else if (m.type == kDown) {
      s.collected.assign(m.ids.begin(), m.ids.end());
      s.done = true;
      sendDown(ctx, s);
    }
  }

 private:
  void maybeSendUp(sim::Context& ctx, DistState& s) {
    if (s.pending > 0) return;
    if (s.parent >= 0) {
      sim::Message m;
      m.type = kUp;
      m.ids = s.collected;
      ctx.sendLongRange(s.parent, std::move(m));
    } else {
      // Root: everything collected; start the downward broadcast.
      s.done = true;
      sendDown(ctx, s);
    }
  }

  void sendDown(sim::Context& ctx, DistState& s) {
    for (int c : s.children) {
      sim::Message m;
      m.type = kDown;
      m.ids = s.collected;
      ctx.sendLongRange(c, std::move(m));
    }
  }

  std::vector<DistState>& st_;
};

}  // namespace

bool OverlayTree::isSingleTree() const {
  int roots = 0;
  for (int p : parent) roots += p < 0 ? 1 : 0;
  return roots == 1;
}

int OverlayTree::computedHeight() const {
  const std::size_t n = parent.size();
  std::vector<int> depth(n, -1);
  int best = 0;
  for (std::size_t v = 0; v < n; ++v) {
    // Follow parents, memoizing depths.
    std::vector<int> chain;
    int cur = static_cast<int>(v);
    while (cur >= 0 && depth[static_cast<std::size_t>(cur)] < 0) {
      chain.push_back(cur);
      cur = parent[static_cast<std::size_t>(cur)];
    }
    int base = cur < 0 ? -1 : depth[static_cast<std::size_t>(cur)];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[static_cast<std::size_t>(*it)] = ++base;
    }
    best = std::max(best, depth[v]);
  }
  return best;
}

OverlayTree buildOverlayTree(sim::Simulator& simulator, unsigned seed) {
  const int n = static_cast<int>(simulator.numNodes());
  const int logn = std::max(1, static_cast<int>(std::ceil(std::log2(std::max(2, n)))));
  const int phases = 3 * logn + 10;
  const int budget = 3 * logn + 16;

  std::vector<TreeState> st(static_cast<std::size_t>(n));
  TreeBuild proto(st, seed, phases, budget);
  OverlayTree tree;
  tree.rounds = simulator.run(proto, phases * budget + 4);
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("proto.overlay_tree.builds").add(1);
    reg.counter("proto.overlay_tree.rounds").add(static_cast<std::uint64_t>(tree.rounds));
  });
  tree.phases = phases;
  tree.parent.resize(static_cast<std::size_t>(n));
  tree.children.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    tree.parent[static_cast<std::size_t>(v)] = st[static_cast<std::size_t>(v)].parent;
    tree.children[static_cast<std::size_t>(v)] = st[static_cast<std::size_t>(v)].children;
    if (st[static_cast<std::size_t>(v)].parent < 0) tree.root = v;
  }
  tree.height = tree.computedHeight();
  return tree;
}

int distributeHullInfo(sim::Simulator& simulator, const OverlayTree& tree,
                       const std::vector<char>& isHullNode,
                       std::vector<std::vector<int>>* learned) {
  std::vector<DistState> st(simulator.numNodes());
  for (std::size_t v = 0; v < st.size(); ++v) {
    st[v].parent = tree.parent[v];
    st[v].children = tree.children[v];
    st[v].pending = static_cast<int>(tree.children[v].size());
    st[v].isHull = isHullNode[v] != 0;
    // Tree links are long-range contacts established during construction.
    if (st[v].parent >= 0) simulator.introduce(static_cast<int>(v), st[v].parent);
    for (int c : st[v].children) simulator.introduce(static_cast<int>(v), c);
  }
  HullDistribution proto(st);
  const int rounds = simulator.run(proto);
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("proto.overlay_tree.distributions").add(1);
    reg.counter("proto.overlay_tree.dist_rounds").add(static_cast<std::uint64_t>(rounds));
  });
  if (learned != nullptr) {
    learned->assign(st.size(), {});
    for (std::size_t v = 0; v < st.size(); ++v) {
      if (st[v].isHull) (*learned)[v] = st[v].collected;
    }
  }
  return rounds;
}

}  // namespace hybrid::protocols
