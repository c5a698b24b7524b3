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

namespace {

// Projection to the key of a (key, value) pair.
constexpr auto key = [](const auto& e) { return e.first; };

// Projection to the (to, seq) key of a pending send.
constexpr auto toSeq = [](const auto& p) { return std::pair(p.msg.to, p.msg.relSeq); };

}  // namespace

void ReliableProtocol::onSend(sim::Message& m, int round) {
  if (m.relCtl) return;  // our own acks pass through untouched
  NodeState& s = st_[static_cast<std::size_t>(m.from)];
  if (m.relSeq >= 0) {
    // A retransmission we initiated in onRoundEnd; already tracked.
    ++s.counters.retransmissions;
    return;
  }
  auto next = std::ranges::lower_bound(s.nextSeqOut, m.to, {}, key);
  if (next == s.nextSeqOut.end() || next->first != m.to) {
    next = s.nextSeqOut.insert(next, {m.to, 0});
  }
  m.relSeq = next->second++;
  const auto at = std::ranges::upper_bound(s.pending, std::pair(m.to, m.relSeq), {}, toSeq);
  const int retryAt = round + RetryPolicy::baseTimeout;
  s.pending.insert(at, PendingSend{m, retryAt, RetryPolicy::baseTimeout, 1});
}

void ReliableProtocol::onStart(sim::Context& ctx) { inner_.onStart(ctx); }

void ReliableProtocol::deliver(sim::Context& ctx, const sim::Message& m) {
  inner_.onMessage(ctx, m);
}

void ReliableProtocol::onMessage(sim::Context& ctx, const sim::Message& m) {
  NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
  if (m.relCtl) {
    const std::pair acked(m.from, m.relSeq);
    const auto it = std::ranges::lower_bound(s.pending, acked, {}, toSeq);
    if (it != s.pending.end() && toSeq(*it) == acked) s.pending.erase(it);
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
  auto link = std::ranges::lower_bound(s.in, m.from, {}, &InboundLink::from);
  if (link == s.in.end() || link->from != m.from) link = s.in.insert(link, {m.from, 0, {}});
  InboundLink& in = *link;
  if (m.relSeq < in.nextSeq) {
    ++s.counters.duplicatesSuppressed;
    return;
  }
  if (m.relSeq > in.nextSeq) {
    // Restore per-link FIFO order: hold until the gap closes.
    const auto h = std::ranges::lower_bound(in.held, m.relSeq, {}, key);
    if (h != in.held.end() && h->first == m.relSeq) {
      ++s.counters.duplicatesSuppressed;
    } else {
      in.held.insert(h, {m.relSeq, m});
      ++s.counters.heldForOrder;
    }
    return;
  }
  deliver(ctx, m);
  ++in.nextSeq;
  std::size_t released = 0;
  for (; released < in.held.size() && in.held[released].first == in.nextSeq; ++released) {
    deliver(ctx, in.held[released].second);
    ++in.nextSeq;
  }
  in.held.erase(in.held.begin(), in.held.begin() + static_cast<std::ptrdiff_t>(released));
}

void ReliableProtocol::onRoundEnd(sim::Context& ctx) {
  inner_.onRoundEnd(ctx);
  NodeState& s = st_[static_cast<std::size_t>(ctx.self())];
  const int round = ctx.round();
  // Retransmit what is due, in (to, seq) order: a sender's send index
  // decides each message's fault fate.
  bool spent = false;
  for (PendingSend& p : s.pending) {
    if (round < p.nextRetry) continue;
    if (p.attempts >= RetryPolicy::maxAttempts) {
      spent = true;
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
  }
  if (spent) {
    const auto isSpent = [&](const PendingSend& p) {
      return round >= p.nextRetry && p.attempts >= RetryPolicy::maxAttempts;
    };
    s.counters.abandoned += static_cast<long>(std::erase_if(s.pending, isSpent));
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
