#pragma once

#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace hybrid::protocols {

/// Timeout and backoff of the reliable transport. The ad hoc round trip is
/// two rounds (data delivered round i+1, ack round i+2), so the base
/// timeout must be at least 3 to avoid spurious retransmissions. A
/// protocol driver that takes a `const RetryPolicy*` runs under the
/// transport when the pointer is set.
struct RetryPolicy {
  static constexpr int baseTimeout = 3;   ///< Rounds before the first retransmission.
  static constexpr int maxTimeout = 32;   ///< Cap of the exponential backoff.
  static constexpr int maxAttempts = 16;  ///< Total sends per message before giving up.
};

/// Transport counters aggregated across all nodes of one wrapped run
/// (internally the transport counts per node so that multi-threaded
/// stepping never shares a counter between chunks).
struct ReliableStats {
  long retransmissions = 0;
  long acks = 0;
  long duplicatesSuppressed = 0;  ///< Dropped as already-delivered copies.
  long heldForOrder = 0;          ///< Buffered to restore per-link FIFO order.
  long abandoned = 0;             ///< Gave up after maxAttempts sends.

  ReliableStats& operator+=(const ReliableStats& o);
};

/// Stop-and-go ARQ wrapper that turns the lossy fault-injected channels
/// into reliable, per-link FIFO ones, transparently to the inner protocol:
///
///  - every inner send gets a per-(sender, receiver) sequence number
///    (attached via the SendTap hook, so Context::send* stays the API);
///  - the receiver acks every data message (acks ride the same link and
///    are themselves lossy — the sender retries until acked or spent);
///  - unacked messages are retransmitted with capped exponential backoff;
///  - deliveries to the inner protocol are deduplicated and reordered
///    into per-link sequence order, so duplication and delay faults are
///    invisible above the transport.
///
/// With a fault-free simulator the wrapper only adds ack traffic; the
/// inner protocol's message pattern is unchanged.
class ReliableProtocol : public sim::Protocol, public sim::SendTap {
 public:
  ReliableProtocol(sim::Simulator& simulator, sim::Protocol& inner);
  ~ReliableProtocol() override;

  void onStart(sim::Context& ctx) override;
  void onMessage(sim::Context& ctx, const sim::Message& m) override;
  void onRoundEnd(sim::Context& ctx) override;
  bool wantsMoreRounds() const override;

  /// Runs on the sender's worker and touches only the sender's state.
  void onSend(sim::Message& m, int round) override;

  /// Sums the per-node counters; cheap (one pass over nodes).
  ReliableStats stats() const;

 private:
  /// An unacked send; `msg.to` and `msg.relSeq` are its (to, seq) key.
  struct PendingSend {
    sim::Message msg;
    int nextRetry = 0;
    int timeout = 0;
    int attempts = 0;
  };
  struct InboundLink {
    int from = -1;
    int nextSeq = 0;
    std::vector<std::pair<int, sim::Message>> held;  ///< Out-of-order arrivals, by seq.
  };
  /// Flat per-node state: small vectors kept sorted, searched by bisection.
  struct NodeState {
    std::vector<std::pair<int, int>> nextSeqOut;  ///< (destination, next seq), by destination.
    std::vector<PendingSend> pending;             ///< In (to, seq) order.
    std::vector<InboundLink> in;                  ///< By sender.
    ReliableStats counters;                       ///< This node's share of the transport stats.
  };

  void deliver(sim::Context& ctx, const sim::Message& m);

  sim::Simulator& sim_;
  sim::Protocol& inner_;
  std::vector<NodeState> st_;
};

/// Runs `proto` on `simulator` for at most `maxRounds` rounds and returns
/// the rounds used; the protocol drivers' one way to run. With `reliable`
/// set the run goes through the ReliableProtocol transport, and its
/// counters are added into `*stats` when `stats` is non-null.
int runProtocol(sim::Simulator& simulator, sim::Protocol& proto, bool reliable,
                ReliableStats* stats = nullptr, int maxRounds = 1 << 20);

}  // namespace hybrid::protocols
