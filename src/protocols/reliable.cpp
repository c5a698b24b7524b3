#include "protocols/reliable.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace hybrid::protocols {

ReliableStats& ReliableStats::operator+=(const ReliableStats& o) {
  retransmissions += o.retransmissions;
  acks += o.acks;
  duplicatesSuppressed += o.duplicatesSuppressed;
  heldForOrder += o.heldForOrder;
  abandoned += o.abandoned;
  return *this;
}

int runProtocol(sim::Simulator& simulator, sim::Protocol& proto, bool reliable,
                ReliableStats* stats, int maxRounds) {
  if (!reliable) return simulator.run(proto, maxRounds);
  ReliableProtocol transport(simulator, proto);
  const int rounds = simulator.run(transport, maxRounds);
  if (stats != nullptr) *stats += transport.stats();
  return rounds;
}

ReliableProtocol::ReliableProtocol(sim::Simulator& simulator, sim::Protocol& inner)
    : sim_(simulator), inner_(inner) {
  st_.resize(sim_.numNodes());
  sim_.setSendTap(this);
}

ReliableProtocol::~ReliableProtocol() {
  if (sim_.sendTap() == this) sim_.setSendTap(nullptr);
  // The wrapper's lifetime brackets one reliable run: publish its ARQ
  // totals when it goes out of scope.
  HYBRID_OBS_STMT(if (obs::enabled()) {
    const ReliableStats total = stats();
    auto& reg = obs::Registry::global();
    reg.counter("arq.retransmissions").add(static_cast<std::uint64_t>(total.retransmissions));
    reg.counter("arq.acks").add(static_cast<std::uint64_t>(total.acks));
    reg.counter("arq.duplicates_suppressed")
        .add(static_cast<std::uint64_t>(total.duplicatesSuppressed));
    reg.counter("arq.held_for_order").add(static_cast<std::uint64_t>(total.heldForOrder));
    reg.counter("arq.abandoned").add(static_cast<std::uint64_t>(total.abandoned));
  });
}

void ReliableProtocol::onSend(sim::Message& m, int round) {
  if (m.relCtl) return;  // our own acks pass through untouched
  NodeState& s = st_[static_cast<std::size_t>(m.from)];
  if (m.relSeq >= 0) {
    // A retransmission we initiated in onRoundEnd; already tracked.
    ++s.counters.retransmissions;
    return;
  }
  const int seq = s.nextSeqOut[m.to]++;
  m.relSeq = seq;
  PendingSend& p = s.pending[{m.to, seq}];
  p.msg = m;
  p.timeout = RetryPolicy::baseTimeout;
  p.nextRetry = round + p.timeout;
  p.attempts = 1;
}

void ReliableProtocol::onStart(sim::Context& ctx) { inner_.onStart(ctx); }

void ReliableProtocol::deliver(sim::Context& ctx, const sim::Message& m) {
  inner_.onMessage(ctx, m);
}

void ReliableProtocol::onMessage(sim::Context& ctx, const sim::Message& m) {
  NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
  if (m.relCtl) {
    s.pending.erase({m.from, m.relSeq});
    return;
  }
  if (m.relSeq < 0) {
    // Not transport-managed (sent outside this wrapper); pass through.
    deliver(ctx, m);
    return;
  }
  // Ack every data copy, duplicates included: the original ack may be the
  // lost one, and acks are idempotent at the sender.
  sim::Message ack;
  ack.relCtl = true;
  ack.relSeq = m.relSeq;
  ++s.counters.acks;
  if (m.link == sim::Link::AdHoc) {
    ctx.sendAdHoc(m.from, std::move(ack));
  } else {
    ctx.sendLongRange(m.from, std::move(ack));
  }
  InboundLink& in = s.in[m.from];
  if (m.relSeq < in.nextSeq) {
    ++s.counters.duplicatesSuppressed;
    return;
  }
  if (m.relSeq > in.nextSeq) {
    // Restore per-link FIFO order: hold until the gap closes.
    if (!in.held.emplace(m.relSeq, m).second) {
      ++s.counters.duplicatesSuppressed;
    } else {
      ++s.counters.heldForOrder;
    }
    return;
  }
  deliver(ctx, m);
  ++in.nextSeq;
  for (auto it = in.held.begin(); it != in.held.end() && it->first == in.nextSeq;) {
    deliver(ctx, it->second);
    ++in.nextSeq;
    it = in.held.erase(it);
  }
}

void ReliableProtocol::onRoundEnd(sim::Context& ctx) {
  inner_.onRoundEnd(ctx);
  NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
  const int round = ctx.round();
  for (auto it = s.pending.begin(); it != s.pending.end();) {
    PendingSend& p = it->second;
    if (round < p.nextRetry) {
      ++it;
      continue;
    }
    if (p.attempts >= RetryPolicy::maxAttempts) {
      ++s.counters.abandoned;
      it = s.pending.erase(it);
      continue;
    }
    ++p.attempts;
    p.timeout = std::min(p.timeout * 2, RetryPolicy::maxTimeout);
    p.nextRetry = round + p.timeout;
    sim::Message copy = p.msg;
    if (copy.link == sim::Link::AdHoc) {
      ctx.sendAdHoc(copy.to, std::move(copy));
    } else {
      ctx.sendLongRange(copy.to, std::move(copy));
    }
    ++it;
  }
}

ReliableStats ReliableProtocol::stats() const {
  ReliableStats total;
  for (const NodeState& s : st_) total += s.counters;
  return total;
}

bool ReliableProtocol::wantsMoreRounds() const {
  if (inner_.wantsMoreRounds()) return true;
  for (const NodeState& s : st_) {
    if (!s.pending.empty()) return true;
  }
  return false;
}

}  // namespace hybrid::protocols
