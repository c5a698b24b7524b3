#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"
#include "sim/message.hpp"
#include "sim/message_pool.hpp"

namespace hybrid::sim {

/// Per-node traffic and fault accounting. Fault counters are charged to
/// the *sender* of the affected message.
struct NodeStats {
  long sentAdHoc = 0;
  long sentLongRange = 0;
  long sentWords = 0;
  long receivedWords = 0;
  long droppedAdHoc = 0;      ///< Lost to random drops or receiver crashes.
  long droppedLongRange = 0;  ///< Lost to random drops, blackouts or crashes.
  long duplicated = 0;        ///< Delivered twice by the fault layer.
  long delayed = 0;           ///< Deferred one or more rounds.
};

/// Round-budget accounting for one run: `budget` is the protocol's
/// round allowance (0 = unlimited), `roundsUsed` what the run took.
struct RoundBudgetReport {
  int budget = 0;
  int roundsUsed = 0;
  bool overrun = false;
  int overrunRounds() const { return overrun ? roundsUsed - budget : 0; }
};

/// Observes every protocol send before it is staged. The reliable
/// transport registers one to attach sequence numbers. The tap runs on the
/// sender's worker, in the sender's send order and concurrently with other
/// senders' taps, so it may touch only the sender's (`m.from`'s) state.
class SendTap {
 public:
  virtual ~SendTap() = default;
  virtual void onSend(Message& m, int round) = 0;
};

class Protocol;

/// Synchronous message-passing simulator over a hybrid communication
/// graph H = (V, E, E_AH): messages sent in round i are delivered at the
/// beginning of round i+1; each node processes its whole mailbox per round.
///
/// E_AH is the unit disk graph passed at construction. E (the knowledge
/// graph) starts as E_AH — every node knows its UDG neighbors' IDs — and
/// grows through ID-introductions carried in Message::ids. A long-range
/// send to an unknown ID is a protocol error and throws.
///
/// An optional FaultPlan injects deterministic, seed-reproducible faults:
/// per-message drop/duplicate/delay on the ad hoc channel, long-range
/// drops and blackouts, and node crash/recover intervals. With no plan
/// (or an all-zero one) the simulator is exactly the loss-free model.
///
/// Hot-path layout (see docs/PROTOCOLS.md, "Simulator internals"): in-flight
/// messages live in slab/freelist MessagePools and circulate as 32-bit
/// handles. Every run uses destination-sharded delivery; a serial run is
/// one shard. Each worker owns one contiguous node range and stages its
/// nodes' sends into its own cache-line-aligned shard (private pool +
/// outbox, no locks, no merge on the driving thread). When it seals them
/// at the end of a round it decides their fault fates and buckets them by
/// destination shard; the next round's workers pull exactly their
/// recipients' messages and order them by (recipient, sender, send index)
/// — byte-identical at any thread count, faults included.
class Simulator {
 public:
  explicit Simulator(const graph::GeometricGraph& udg);
  Simulator(const graph::GeometricGraph& udg, FaultPlan faults);
  ~Simulator();

  const graph::GeometricGraph& udg() const { return udg_; }
  std::size_t numNodes() const { return udg_.numNodes(); }
  geom::Vec2 position(int v) const { return udg_.position(v); }

  bool knows(int v, int id) const;
  /// Out-of-band introduction (setup only; not counted as traffic).
  void introduce(int v, int id);

  /// Runs `protocol` until no messages are in flight and no node asks to
  /// continue, or until maxRounds. Returns the number of rounds executed.
  int run(Protocol& protocol, int maxRounds = 1 << 20);

  const std::vector<NodeStats>& stats() const { return stats_; }
  long totalMessages() const;
  long maxWordsPerNode() const;
  long totalDropped() const;

  /// Resets traffic statistics (knowledge is kept).
  void resetStats();

  /// Worker threads for node stepping: 1 (default) steps nodes serially
  /// and is safe for any protocol; 0 resolves to the hardware concurrency.
  /// Requests beyond the hardware concurrency are clamped at run() time
  /// (oversubscribing the pool only adds context-switch overhead) unless
  /// setAllowOversubscribe(true) — see effectiveThreads() for what a run
  /// actually used. Runs are bit-identical across thread counts — traces,
  /// stats, fault schedules and delivery order included. Protocols stepped
  /// with threads > 1 must keep per-node state only (as a distributed
  /// protocol does by definition): onStart/onMessage/onRoundEnd for
  /// *different* nodes run concurrently.
  void setThreads(int threads) { threads_ = threads; }
  int threads() const { return threads_; }

  /// Lets setThreads() exceed the hardware concurrency. Determinism tests
  /// use this so the parallel machinery (and its TSan coverage) does not
  /// silently degrade to serial on small CI boxes.
  void setAllowOversubscribe(bool on) { allowOversubscribe_ = on; }

  /// Thread count the last run() actually stepped with, after resolving 0
  /// and clamping; also surfaced as the obs gauge `sim.threads.effective`.
  int effectiveThreads() const { return effectiveThreads_; }

  /// Sets the per-run round allowance; run() never stops early because of
  /// it, but budgetReport() flags the overrun afterwards.
  void setRoundBudget(int rounds) { budget_.budget = rounds; }
  const RoundBudgetReport& budgetReport() const { return budget_; }

  /// At most one tap; pass nullptr to clear. See protocols/reliable.hpp.
  void setSendTap(SendTap* tap) { tap_ = tap; }
  SendTap* sendTap() const { return tap_; }

  /// Records every delivery and fault event of subsequent runs into an
  /// append-only text trace. Within a round, lines run in (recipient,
  /// sender, send index) order, each fault line in the place of the
  /// delivery it changed. Two runs with equal seeds and protocols must
  /// produce byte-identical traces (enforced by fault_injection_test), at
  /// any thread count (enforced by sim_threads_test).
  void enableTrace(bool on = true) { traceEnabled_ = on; }
  const std::string& trace() const { return trace_; }

  /// Test introspection into sharded delivery: shards retained across runs
  /// (0 before any), and the slot count of one shard's private MessagePool.
  std::size_t shardCount() const { return shards_.size(); }
  std::size_t shardPoolSlots(std::size_t s) const { return shards_[s].pool.slotCount(); }

 private:
  friend class Context;

  /// Per-shard tallies mirrored into the obs registry when a run finishes
  /// (obs::enabled() runs only). Kept as plain longs so the hot path pays
  /// one relaxed flag load per event, no atomics; flushing is one registry
  /// update per run. Metrics never affect behavior.
  struct ObsTally {
    long sentAdHoc = 0;
    long sentLongRange = 0;
    long sentWords = 0;
    long delivered = 0;
    long dropped = 0;
    long duplicated = 0;
    long delayed = 0;
  };
  /// Adds the run's tallies + pool/round stats to the global registry.
  void flushObs(int rounds);

  /// What the recipient's worker does with a send in its delivery round.
  /// The sender's worker sets it when it seals the send; only faulty runs
  /// see anything but Deliver.
  enum class Fate : std::uint8_t { Deliver, Duplicate, Delay, Drop, Crash, Blackout };

  /// One staged send. `key` orders the message for delivery, `msg` points
  /// into the staging shard's pool (slab addresses are stable, so other
  /// workers may read the message while the owner's pool grows), `handle`
  /// lets the owning shard recycle the slot once it has been delivered.
  struct Staged {
    std::uint64_t key = 0;  ///< (to << 32) | from.
    Message* msg = nullptr;
    MessagePool::Handle handle = MessagePool::kInvalid;
    Fate fate = Fate::Deliver;
  };

  /// A delayed send, kept in its sender's shard until it falls due.
  struct Deferred {
    int due = 0;
    Staged staged;
  };

  /// One worker's private world, aligned so two shards never share a cache
  /// line. The worker that steps node range c is the only writer of shard
  /// c: it stages its nodes' sends into `staging` (sealed into `frozen` by
  /// destination shard at the end of each round) and appends its
  /// recipients' trace lines to `trace`. Other workers only ever *read* a
  /// shard's `frozen`/`bucketStart` after a phase barrier, so no locks are
  /// needed anywhere on the round path.
  struct alignas(64) Shard {
    MessagePool pool;
    std::vector<Staged> staging;  ///< This round's sends, append order.
    std::vector<Staged> frozen;   ///< Sealed sends, bucketed by destination shard.
    std::vector<std::uint32_t> bucketStart;  ///< numShards+1 offsets into frozen.
    std::vector<Deferred> delayed;  ///< Delayed sends not yet due, deferral order.
    std::vector<Staged> inbox;      ///< This round's mail, delivery order.
    std::vector<std::uint32_t> counts;  ///< Counting-sort scratch.
    std::string trace;                  ///< Trace lines for this recipient range.
    ObsTally tally;
  };

  /// Tap + stats + pool admission of one send, on the sender's worker.
  void stageSend(Shard& sh, Message&& m, int round);
  /// Decides the fates of the shard's staged sends for delivery in `round`
  /// (faulty runs), appends its delayed sends that fall due then, and
  /// buckets the lot into `frozen` by destination shard.
  void sealShard(Shard& sh, int round);
  /// Charges a lost, duplicated or delayed send to its sender.
  void chargeFate(Shard& sh, const Message& m, Fate fate);
  /// Collects shard c's mail from every sealed shard, orders it by
  /// (recipient, sender, send index) and delivers it.
  void deliverChunk(Protocol& protocol, std::size_t b, std::size_t e, unsigned c, int round);
  void deliver(Protocol& protocol, Shard& sh, const Message& m, int round);
  /// Recycles the slots of `frozen` once its round has been delivered.
  void releaseDelivered(Shard& sh);
  void releaseAllInFlight();
  void traceMessage(std::string& out, const char* tag, int round, const Message& m);

  const graph::GeometricGraph& udg_;
  std::vector<std::unordered_set<int>> knowledge_;
  std::vector<NodeStats> stats_;
  /// Per node, sends so far in the round being sealed (faulty runs); the
  /// sender's shard owns its entry.
  std::vector<std::uint32_t> sendIndex_;
  FaultPlan faults_;
  RoundBudgetReport budget_;
  SendTap* tap_ = nullptr;
  bool traceEnabled_ = false;
  std::string trace_;
  int threads_ = 1;
  int effectiveThreads_ = 1;
  bool allowOversubscribe_ = false;
  long liveHighWater_ = 0;  ///< Obs only: most messages alive at a round start.

  // Shards recycle their capacity across runs.
  std::vector<Shard> shards_;
  std::size_t chunkNodes_ = 1;  ///< Nodes per shard of the current run.
  unsigned numShards_ = 0;      ///< Shards of the current run.
};

/// Handle through which protocol code interacts with the simulator for one
/// node within one round. Sends stage straight into the stepping worker's
/// shard: tap, stats and pool admission happen on that worker, no merge.
class Context {
 public:
  Context(Simulator& sim, int self, int round, Simulator::Shard& shard)
      : sim_(sim), self_(self), round_(round), shard_(shard) {}

  int self() const { return self_; }
  int round() const { return round_; }
  geom::Vec2 position() const { return sim_.position(self_); }
  std::span<const int> udgNeighbors() const { return sim_.udg().neighbors(self_); }
  bool knows(int id) const { return sim_.knows(self_, id); }

  /// Sends over an ad hoc edge; `to` must be a UDG neighbor.
  void sendAdHoc(int to, Message m);
  /// Sends over a long-range link; `to` must be known to this node.
  void sendLongRange(int to, Message m);

 private:
  Simulator& sim_;
  int self_;
  int round_;
  Simulator::Shard& shard_;
};

/// A distributed protocol: per-node event handlers. Handlers may send
/// messages; sends made while processing round i are delivered in round
/// i+1. State is owned by the protocol object (indexed by node). Keep the
/// state strictly per-node if the protocol should support multi-threaded
/// stepping (Simulator::setThreads).
class Protocol {
 public:
  virtual ~Protocol() = default;
  /// Called once per node before round 1.
  virtual void onStart(Context& ctx) = 0;
  /// Called for each delivered message.
  virtual void onMessage(Context& ctx, const Message& m) = 0;
  /// Called for every node after its mailbox was processed each round.
  virtual void onRoundEnd(Context& ctx) { (void)ctx; }
  /// Return true from any node to keep the simulation alive even with an
  /// empty message queue (e.g. fixed-schedule phases).
  virtual bool wantsMoreRounds() const { return false; }
};

}  // namespace hybrid::sim
