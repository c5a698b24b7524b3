#include "protocols/label_distribution.hpp"

#include <algorithm>
#include <map>

#include "obs/metrics.hpp"

namespace hybrid::protocols {

namespace {

using routing::NodeLabels;

constexpr int kIdsUp = 24;   // ids: subtree node ids, convergecast
constexpr int kBundle = 25;  // ints: [owner, (hub, nextHop, hubOut)*], reals: [dist*]

struct LabelDistState {
  int parent = -1;
  std::vector<int> children;
  int pending = 0;                ///< Children yet to report their subtree.
  std::vector<int> collected;     ///< Subtree ids (self included).
  std::map<int, int> routeChild;  ///< Subtree id -> index into children.
  bool gotLabel = false;
  std::vector<NodeLabels::Entry> entries;
  // Per-node traffic counters (multi-threaded stepping keeps state
  // strictly per node; the report sums them after the run).
  long msgs = 0;
  long words = 0;
  long maxBundleWords = 0;
};

class LabelDistribution : public sim::Protocol {
 public:
  LabelDistribution(std::vector<LabelDistState>& st, const NodeLabels& labels)
      : st_(st), labels_(labels) {}

  void onStart(sim::Context& ctx) override {
    LabelDistState& s = st_[static_cast<std::size_t>(ctx.self())];
    s.collected.push_back(ctx.self());
    maybeSendUp(ctx, s);
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    LabelDistState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (m.type == kIdsUp) {
      for (std::size_t c = 0; c < s.children.size(); ++c) {
        if (s.children[c] != m.from) continue;
        for (const int id : m.ids) s.routeChild[id] = static_cast<int>(c);
        break;
      }
      s.collected.insert(s.collected.end(), m.ids.begin(), m.ids.end());
      --s.pending;
      maybeSendUp(ctx, s);
    } else if (m.type == kBundle) {
      const int owner = static_cast<int>(m.ints[0]);
      if (owner == ctx.self()) {
        const std::size_t count = m.reals.size();
        s.entries.clear();
        s.entries.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
          s.entries.push_back({static_cast<std::int32_t>(m.ints[1 + 3 * k]),
                               static_cast<std::int32_t>(m.ints[2 + 3 * k]),
                               static_cast<std::int32_t>(m.ints[3 + 3 * k]), m.reals[k]});
        }
        s.gotLabel = true;
        return;
      }
      const auto it = s.routeChild.find(owner);
      if (it == s.routeChild.end()) return;  // not in our subtree: corrupt route
      sim::Message fwd;
      fwd.type = kBundle;
      fwd.ints = m.ints;
      fwd.reals = m.reals;
      countSend(s, fwd);
      ctx.sendLongRange(s.children[static_cast<std::size_t>(it->second)], std::move(fwd));
    }
  }

 private:
  void countSend(LabelDistState& s, const sim::Message& m) {
    const auto w = static_cast<long>(m.words());
    ++s.msgs;
    s.words += w;
    if (m.type == kBundle) s.maxBundleWords = std::max(s.maxBundleWords, w);
  }

  void maybeSendUp(sim::Context& ctx, LabelDistState& s) {
    if (s.pending > 0) return;
    if (s.parent >= 0) {
      sim::Message m;
      m.type = kIdsUp;
      m.ids = s.collected;
      countSend(s, m);
      ctx.sendLongRange(s.parent, std::move(m));
      return;
    }
    // Root: subtree membership is complete; emit one bundle per node. The
    // root is the preprocessing leader and the only node that ever holds
    // the full slab — everyone else sees just its own label.
    for (const int v : s.collected) {
      if (v == ctx.self()) {
        s.entries = labels_.entriesOf(v);
        s.gotLabel = true;
        continue;
      }
      const auto it = s.routeChild.find(v);
      if (it == s.routeChild.end()) continue;
      const NodeLabels::View lv = labels_.view(v);
      sim::Message m;
      m.type = kBundle;
      m.ints.push_back(v);
      for (std::size_t k = 0; k < lv.size(); ++k) {
        m.ints.push_back(lv.hubs[k]);
        m.ints.push_back(lv.nextHop[k]);
        m.ints.push_back(lv.hubOut[k]);
        m.reals.push_back(lv.dist[k]);
      }
      countSend(s, m);
      ctx.sendLongRange(s.children[static_cast<std::size_t>(it->second)], std::move(m));
    }
  }

  std::vector<LabelDistState>& st_;
  const NodeLabels& labels_;
};

}  // namespace

LabelDistributionReport distributeNodeLabels(
    sim::Simulator& simulator, const OverlayTree& tree, const routing::NodeLabels& labels,
    std::vector<std::vector<routing::NodeLabels::Entry>>* received, const RetryPolicy* retry) {
  const std::size_t n = simulator.numNodes();
  std::vector<LabelDistState> st(n);
  for (std::size_t v = 0; v < n; ++v) {
    st[v].parent = tree.parent[v];
    st[v].children = tree.children[v];
    st[v].pending = static_cast<int>(tree.children[v].size());
    // Tree links are long-range contacts established during construction.
    if (st[v].parent >= 0) simulator.introduce(static_cast<int>(v), st[v].parent);
    for (const int c : st[v].children) simulator.introduce(static_cast<int>(v), c);
  }

  LabelDistribution proto(st, labels);
  LabelDistributionReport rep;
  rep.rounds = runProtocol(simulator, proto, retry != nullptr);

  rep.complete = true;
  for (const LabelDistState& s : st) {
    rep.messages += s.msgs;
    rep.words += s.words;
    rep.maxBundleWords = std::max(rep.maxBundleWords, s.maxBundleWords);
    rep.complete = rep.complete && s.gotLabel;
  }
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("labels.dist.runs").add(1);
    reg.counter("labels.dist.rounds").add(static_cast<std::uint64_t>(rep.rounds));
    reg.counter("labels.dist.messages").add(static_cast<std::uint64_t>(rep.messages));
    reg.counter("labels.dist.words").add(static_cast<std::uint64_t>(rep.words));
  });
  if (received != nullptr) {
    received->assign(n, {});
    for (std::size_t v = 0; v < n; ++v) {
      if (st[v].gotLabel) (*received)[v] = std::move(st[v].entries);
    }
  }
  return rep;
}

}  // namespace hybrid::protocols
