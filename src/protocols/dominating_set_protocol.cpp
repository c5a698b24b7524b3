#include "protocols/dominating_set_protocol.hpp"

#include <algorithm>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace hybrid::protocols {

namespace {

// Deterministic per-(node, round) hash, used for coins and for the random
// priorities that break span ties (monotone-ID chains would otherwise
// degrade to one join per super-round).
std::uint64_t mix(unsigned seed, int node, int round) {
  std::uint64_t x = (static_cast<std::uint64_t>(seed) << 32) ^
                    (static_cast<std::uint64_t>(node) << 16) ^
                    static_cast<std::uint64_t>(round);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

bool coin(unsigned seed, int node, int round) { return (mix(seed, node, round) & 1) != 0; }

struct DsState {
  int chain = -1;
  int left = -1;   ///< -1 at the chain ends.
  int right = -1;
  bool covered = false;
  bool inDS = false;
  bool leftCovered = true;   ///< Non-existent neighbors count as covered.
  bool rightCovered = true;
  int span = 0;
  std::uint64_t prio = 0;        ///< This super-round's random priority.
  int bestNearbySpan = 0;        ///< Max (span, prio, id)-key within two hops.
  std::uint64_t bestNearbyPrio = 0;
  int bestNearbyId = -1;
};

// Sub-round schedule within each super-round of four rounds.
constexpr int kMsgCovered = 1;  // ints: [covered]
constexpr int kMsgSpan = 2;     // ints: [span]
constexpr int kMsgSpan2 = 3;    // ints: [span, originId]
constexpr int kMsgJoin = 4;

class DsProtocol : public sim::Protocol {
 public:
  DsProtocol(std::vector<DsState>& st, unsigned seed) : st_(st), seed_(seed) {}

  void onStart(sim::Context& ctx) override { sendCovered(ctx); }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    DsState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (s.chain < 0) return;
    switch (m.type) {
      case kMsgCovered: {
        const bool cov = m.ints[0] != 0;
        if (m.from == s.left) s.leftCovered = cov;
        if (m.from == s.right) s.rightCovered = cov;
        break;
      }
      case kMsgSpan:
      case kMsgSpan2: {
        const int span = static_cast<int>(m.ints[0]);
        const auto prio = static_cast<std::uint64_t>(m.ints[1]);
        const int origin = m.type == kMsgSpan ? m.from : static_cast<int>(m.ints[2]);
        const auto key = std::make_tuple(span, prio, origin);
        if (key > std::make_tuple(s.bestNearbySpan, s.bestNearbyPrio, s.bestNearbyId)) {
          s.bestNearbySpan = span;
          s.bestNearbyPrio = prio;
          s.bestNearbyId = origin;
        }
        // Relay one-hop spans onward so both sides see two hops.
        if (m.type == kMsgSpan) {
          const int other = m.from == s.left ? s.right : s.left;
          if (other >= 0) {
            sim::Message relay;
            relay.type = kMsgSpan2;
            relay.ints = {span, m.ints[1], origin};
            ctx.sendLongRange(other, std::move(relay));
          }
        }
        break;
      }
      case kMsgJoin:
        // The sender joined the set, so it is covered itself...
        if (m.from == s.left) s.leftCovered = true;
        if (m.from == s.right) s.rightCovered = true;
        // ...and it covers us.
        if (!s.covered) {
          s.covered = true;
          // Freshen the neighbors' view immediately so spans converge.
          for (const int nb : {s.left, s.right}) {
            if (nb < 0) continue;
            sim::Message cov;
            cov.type = kMsgCovered;
            cov.ints = {1};
            ctx.sendLongRange(nb, std::move(cov));
          }
        }
        break;
      default:
        break;
    }
  }

  bool wantsMoreRounds() const override {
    // Keep the synchronized 3-round schedule alive while any chain node
    // still sees uncovered territory (relay-free chain ends would starve
    // the queue otherwise).
    for (const DsState& s : st_) {
      if (s.chain >= 0 && (!s.covered || !s.leftCovered || !s.rightCovered)) return true;
    }
    return false;
  }

  void onRoundEnd(sim::Context& ctx) override {
    DsState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (s.chain < 0) return;
    // Super-round of four rounds:
    //   = 0 mod 4: decide; joins and covered bits go out,
    //   = 1 mod 4: JOIN delivered; newly covered nodes re-broadcast,
    //   = 2 mod 4: all covered bits in; compute spans and send them,
    //   = 3 mod 4: one-hop spans delivered; relays forward them two hops.
    // The extra slot (vs. a three-round cycle) lets coverage from a join
    // reach two-hop neighbors *before* they recompute their spans.
    if (ctx.round() % 4 == 2) {
      onSpanRound(ctx, s);
    } else if (ctx.round() % 4 == 0 && ctx.round() > 0) {
      onDecideRound(ctx, s);
    }
  }

 private:
  void onSpanRound(sim::Context& ctx, DsState& s) {
    s.span = (s.covered ? 0 : 1) + (s.leftCovered ? 0 : 1) + (s.rightCovered ? 0 : 1);
    s.prio = mix(seed_ + 0x5151, ctx.self(), ctx.round());
    s.bestNearbySpan = s.span;
    s.bestNearbyPrio = s.prio;
    s.bestNearbyId = ctx.self();
    if (s.span == 0) return;  // nothing to cover here: passive
    for (const int nb : {s.left, s.right}) {
      if (nb < 0) continue;
      sim::Message m;
      m.type = kMsgSpan;
      m.ints = {s.span, static_cast<std::int64_t>(s.prio)};
      ctx.sendLongRange(nb, std::move(m));
    }
  }

  void onDecideRound(sim::Context& ctx, DsState& s) {
    if (s.span == 0 || s.inDS) return;
    const bool isMax = std::make_tuple(s.span, s.prio, ctx.self()) >=
                       std::make_tuple(s.bestNearbySpan, s.bestNearbyPrio, s.bestNearbyId);
    if (!isMax || !coin(seed_, ctx.self(), ctx.round())) {
      // Not joining this super-round; re-open the next one.
      sendCovered(ctx);
      return;
    }
    s.inDS = true;
    s.covered = true;
    // Everything in the closed neighborhood is covered by this node now.
    s.leftCovered = true;
    s.rightCovered = true;
    for (const int nb : {s.left, s.right}) {
      if (nb < 0) continue;
      sim::Message m;
      m.type = kMsgJoin;
      ctx.sendLongRange(nb, std::move(m));
    }
    sendCovered(ctx);
  }

  void sendCovered(sim::Context& ctx) {
    DsState& s = st_[static_cast<std::size_t>(ctx.self())];
    if (s.chain < 0) return;
    // Only nodes with uncovered territory keep the protocol alive.
    if (s.covered && s.leftCovered && s.rightCovered) return;
    for (const int nb : {s.left, s.right}) {
      if (nb < 0) continue;
      sim::Message m;
      m.type = kMsgCovered;
      m.ints = {s.covered ? 1 : 0};
      ctx.sendLongRange(nb, std::move(m));
    }
  }

  std::vector<DsState>& st_;
  unsigned seed_;
};

}  // namespace

DominatingSetProtocol::DominatingSetProtocol(sim::Simulator& simulator,
                                             std::vector<std::vector<int>> chains,
                                             unsigned seed, const RetryPolicy* retry)
    : sim_(simulator), chains_(std::move(chains)), seed_(seed), withRetry_(retry != nullptr) {
  // Chain neighbors are ring neighbors, known from the boundary structure.
  for (const auto& chain : chains_) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      sim_.introduce(chain[i], chain[i + 1]);
      sim_.introduce(chain[i + 1], chain[i]);
    }
  }
}

int DominatingSetProtocol::run(int maxRounds) {
  obs::ScopedSpan span("proto.ds");
  std::vector<DsState> st(sim_.numNodes());
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    const auto& chain = chains_[c];
    for (std::size_t i = 0; i < chain.size(); ++i) {
      DsState& s = st[static_cast<std::size_t>(chain[i])];
      s.chain = static_cast<int>(c);
      s.left = i > 0 ? chain[i - 1] : -1;
      s.right = i + 1 < chain.size() ? chain[i + 1] : -1;
      s.leftCovered = s.left < 0;
      s.rightCovered = s.right < 0;
    }
  }
  DsProtocol proto(st, seed_);
  reliableStats_ = {};
  const int rounds = runProtocol(sim_, proto, withRetry_, &reliableStats_, maxRounds);
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("proto.ds.runs").add(1);
    reg.counter("proto.ds.rounds").add(static_cast<std::uint64_t>(rounds));
  });

  result_.assign(chains_.size(), {});
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    for (int v : chains_[c]) {
      if (st[static_cast<std::size_t>(v)].inDS) result_[c].push_back(v);
    }
  }
  return rounds;
}

}  // namespace hybrid::protocols
