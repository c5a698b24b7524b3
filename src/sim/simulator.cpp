#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace hybrid::sim {

Simulator::Simulator(const graph::GeometricGraph& udg) : udg_(udg) {
  knowledge_.resize(udg.numNodes());
  stats_.resize(udg.numNodes());
  sendIndex_.resize(udg.numNodes());
  for (int v = 0; v < static_cast<int>(udg.numNodes()); ++v) {
    for (int nb : udg.neighbors(v)) knowledge_[static_cast<std::size_t>(v)].insert(nb);
  }
}

Simulator::Simulator(const graph::GeometricGraph& udg, FaultPlan faults)
    : Simulator(udg) {
  faults_ = std::move(faults);
}

Simulator::~Simulator() = default;

bool Simulator::knows(int v, int id) const {
  return id == v || knowledge_[static_cast<std::size_t>(v)].contains(id);
}

void Simulator::introduce(int v, int id) {
  if (id != v) knowledge_[static_cast<std::size_t>(v)].insert(id);
}

void Simulator::traceMessage(std::string& out, const char* tag, int round,
                             const Message& m) {
  if (!traceEnabled_) return;
  char head[96];
  std::snprintf(head, sizeof head, "R%d %s %d>%d %c t%d q%d%s", round, tag, m.from,
                m.to, m.link == Link::AdHoc ? 'a' : 'l', m.type, m.relSeq,
                m.relCtl ? " c" : "");
  out += head;
  char word[48];
  for (std::int64_t x : m.ints) {
    std::snprintf(word, sizeof word, " i%lld", static_cast<long long>(x));
    out += word;
  }
  for (double x : m.reals) {
    std::snprintf(word, sizeof word, " r%.17g", x);
    out += word;
  }
  for (int x : m.ids) {
    std::snprintf(word, sizeof word, " d%d", x);
    out += word;
  }
  out += '\n';
}

void Context::sendAdHoc(int to, Message m) {
  if (!sim_.udg().hasEdge(self_, to)) {
    throw std::logic_error("sendAdHoc: target is not a UDG neighbor");
  }
  m.from = self_;
  m.to = to;
  m.link = Link::AdHoc;
  sim_.stageSend(shard_, std::move(m), round_);
}

void Context::sendLongRange(int to, Message m) {
  if (!sim_.knows(self_, to)) {
    throw std::logic_error("sendLongRange: target ID unknown to sender");
  }
  m.from = self_;
  m.to = to;
  m.link = Link::LongRange;
  sim_.stageSend(shard_, std::move(m), round_);
}

void Simulator::releaseDelivered(Shard& sh) {
  // A delayed send's slot belongs to its `delayed` entry until it is due.
  for (const Staged& st : sh.frozen) {
    if (st.fate != Fate::Delay) sh.pool.release(st.handle);
  }
  sh.frozen.clear();
}

void Simulator::releaseAllInFlight() {
  for (Shard& sh : shards_) {
    for (const Staged& st : sh.staging) sh.pool.release(st.handle);
    sh.staging.clear();
    releaseDelivered(sh);
    for (const Deferred& d : sh.delayed) sh.pool.release(d.staged.handle);
    sh.delayed.clear();
    sh.trace.clear();
    sh.tally = ObsTally{};
  }
}

void Simulator::stageSend(Shard& sh, Message&& m, int round) {
  // m.from is always a node of the staging worker's own range (onStart /
  // onRoundEnd step it, onMessage delivers to it), so the tap's view of the
  // sender and the sender's stats row are shard-owned.
  if (tap_ != nullptr) tap_->onSend(m, round);
  auto& st = stats_[static_cast<std::size_t>(m.from)];
  if (m.link == Link::AdHoc) {
    ++st.sentAdHoc;
  } else {
    ++st.sentLongRange;
  }
  st.sentWords += static_cast<long>(m.words());
  HYBRID_OBS_STMT(if (obs::enabled()) {
    ++(m.link == Link::AdHoc ? sh.tally.sentAdHoc : sh.tally.sentLongRange);
    sh.tally.sentWords += static_cast<long>(m.words());
  });
  const MessagePool::Handle h = sh.pool.acquire();
  Message& slot = sh.pool.get(h);
  slot = std::move(m);
  sh.staging.push_back(Staged{(static_cast<std::uint64_t>(slot.to) << 32) |
                                  static_cast<std::uint32_t>(slot.from),
                              &slot, h});
}

void Simulator::chargeFate([[maybe_unused]] Shard& sh, const Message& m, Fate fate) {
  auto& sender = stats_[static_cast<std::size_t>(m.from)];
  switch (fate) {
    case Fate::Deliver:
      return;
    case Fate::Duplicate:
      ++sender.duplicated;
      HYBRID_OBS_STMT(if (obs::enabled()) ++sh.tally.duplicated);
      return;
    case Fate::Delay:
      ++sender.delayed;
      HYBRID_OBS_STMT(if (obs::enabled()) ++sh.tally.delayed);
      return;
    case Fate::Drop:
    case Fate::Crash:
    case Fate::Blackout:
      ++(m.link == Link::AdHoc ? sender.droppedAdHoc : sender.droppedLongRange);
      HYBRID_OBS_STMT(if (obs::enabled()) ++sh.tally.dropped);
      return;
  }
}

void Simulator::sealShard(Shard& sh, int round) {
  if (faults_.active()) {
    // Each fresh send's fate is a pure function of (seed, delivery round,
    // sender, the sender's send index in its round). All of a sender's
    // sends stage into its own shard in send order, so the shard decides
    // them alone and the schedule cannot depend on the thread count.
    for (Staged& st : sh.staging) {
      const Message& m = *st.msg;
      const auto from = static_cast<std::uint32_t>(st.key);
      const std::uint64_t index = (static_cast<std::uint64_t>(from) << 32) | sendIndex_[from]++;
      int delayRounds = 0;
      if (faults_.crashed(m.to, round)) {
        st.fate = Fate::Crash;
      } else if (m.link == Link::LongRange && faults_.blackedOut(round)) {
        st.fate = Fate::Blackout;
      } else {
        switch (faults_.decide(round, index, m, &delayRounds)) {
          case FaultAction::Deliver:
            break;
          case FaultAction::Drop:
            st.fate = Fate::Drop;
            break;
          case FaultAction::Duplicate:
            st.fate = Fate::Duplicate;
            break;
          case FaultAction::Delay:
            st.fate = Fate::Delay;
            sh.delayed.push_back({round + delayRounds, st});
            break;
        }
      }
      chargeFate(sh, m, st.fate);
    }
    for (const Staged& st : sh.staging) sendIndex_[static_cast<std::uint32_t>(st.key)] = 0;
    // Delayed sends that fall due join the round behind the fresh ones. A
    // message cannot outlive its receiver: the crash check runs again.
    std::size_t keep = 0;
    for (const Deferred& d : sh.delayed) {
      if (d.due > round) {
        sh.delayed[keep++] = d;
        continue;
      }
      Staged st = d.staged;
      st.fate = faults_.crashed(st.msg->to, round) ? Fate::Crash : Fate::Deliver;
      chargeFate(sh, *st.msg, st.fate);
      sh.staging.push_back(st);
    }
    sh.delayed.resize(keep);
  }
  // Stable counting sort by destination shard: the next round's delivery
  // workers then read exactly their bucket. Equal (to, from) keys can only
  // meet inside one sender shard (a sender's shard is a function of
  // `from`), so keeping buckets in append order is all the tie-breaking
  // the (to, from, send index) order needs. A serial run's one bucket is
  // the append order itself.
  const std::size_t m = sh.staging.size();
  if (numShards_ == 1) {
    sh.bucketStart.assign({0, static_cast<std::uint32_t>(m)});
    sh.frozen.swap(sh.staging);
    sh.staging.clear();
    return;
  }
  sh.bucketStart.assign(numShards_ + 1, 0);
  for (const Staged& st : sh.staging) {
    ++sh.bucketStart[(st.key >> 32) / chunkNodes_ + 1];
  }
  for (unsigned s = 1; s <= numShards_; ++s) sh.bucketStart[s] += sh.bucketStart[s - 1];
  sh.frozen.resize(m);
  sh.counts.assign(numShards_, 0);
  for (const Staged& st : sh.staging) {
    const std::size_t d = (st.key >> 32) / chunkNodes_;
    sh.frozen[sh.bucketStart[d] + sh.counts[d]++] = st;
  }
  sh.staging.clear();
}

void Simulator::deliver(Protocol& protocol, Shard& sh, const Message& m, int round) {
  // The receiver learns the sender and all introduced IDs; ad hoc senders
  // are UDG neighbors the receiver knows from initialization.
  if (m.link != Link::AdHoc) introduce(m.to, m.from);
  for (int id : m.ids) introduce(m.to, id);
  stats_[static_cast<std::size_t>(m.to)].receivedWords += static_cast<long>(m.words());
  if (traceEnabled_) traceMessage(sh.trace, "RX", round, m);
  HYBRID_OBS_STMT(if (obs::enabled()) ++sh.tally.delivered);
  Context ctx(*this, m.to, round, sh);
  protocol.onMessage(ctx, m);
}

void Simulator::deliverChunk(Protocol& protocol, std::size_t b, std::size_t e, unsigned c,
                             int round) {
  Shard& sh = shards_[c];
  // This shard's mail is bucket c of every sealed shard. Order it by
  // (recipient, sender, send index): a stable counting sort by recipient,
  // O(m + nodes/shard) with no O(nodes) scan, straight out of the buckets
  // in shard order, then a stable sort by sender inside each recipient's
  // group. Shard-major collection keeps each sender shard's append (=
  // send) order, which is the tie-break the stable passes rely on. Groups
  // are one node's per-round in-degree, so the inner sorts are tiny.
  const auto eachMail = [&](auto&& fn) {
    for (unsigned s = 0; s < numShards_; ++s) {
      const Shard& src = shards_[s];
      for (std::uint32_t i = src.bucketStart[c]; i < src.bucketStart[c + 1]; ++i) {
        fn(src.frozen[i]);
      }
    }
  };
  const std::size_t span = e - b;
  sh.counts.assign(span + 1, 0);
  eachMail([&](const Staged& st) { ++sh.counts[(st.key >> 32) - b + 1]; });
  for (std::size_t i = 1; i <= span; ++i) sh.counts[i] += sh.counts[i - 1];
  const std::size_t m = sh.counts[span];
  sh.inbox.resize(m);
  if (m == 0) return;
  eachMail([&](const Staged& st) { sh.inbox[sh.counts[(st.key >> 32) - b]++] = st; });
  for (std::size_t g = 0; g < span; ++g) {
    const std::uint32_t gb = g == 0 ? 0 : sh.counts[g - 1];
    const std::uint32_t ge = sh.counts[g];
    if (ge - gb < 2) continue;
    if (ge - gb <= 32) {
      for (std::uint32_t i = gb + 1; i < ge; ++i) {
        const Staged st = sh.inbox[i];
        std::uint32_t j = i;
        while (j > gb && sh.inbox[j - 1].key > st.key) {
          sh.inbox[j] = sh.inbox[j - 1];
          --j;
        }
        sh.inbox[j] = st;
      }
    } else {
      std::stable_sort(sh.inbox.begin() + gb, sh.inbox.begin() + ge,
                       [](const Staged& a, const Staged& b2) { return a.key < b2.key; });
    }
  }
  // Fault lines take the place of the delivery they changed; a duplicate
  // is delivered twice in a row.
  static constexpr const char* kFateTag[] = {"RX", "DU", "DL", "XD", "XC", "XB"};
  for (std::size_t i = 0; i < m; ++i) {
    const Staged& st = sh.inbox[i];
    if (i + 1 < m) __builtin_prefetch(sh.inbox[i + 1].msg);
    if (st.fate != Fate::Deliver) {
      traceMessage(sh.trace, kFateTag[static_cast<int>(st.fate)], round, *st.msg);
      if (st.fate != Fate::Duplicate) continue;
      deliver(protocol, sh, *st.msg, round);
    }
    deliver(protocol, sh, *st.msg, round);
  }
}

int Simulator::run(Protocol& protocol, int maxRounds) {
  obs::ScopedSpan runSpan("sim.run");
  releaseAllInFlight();
  const std::size_t n = numNodes();
  unsigned threads = util::resolveThreads(threads_);
  if (!allowOversubscribe_) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min(threads, hw == 0 ? 1u : hw);
  }
  threads = std::min(threads, util::ThreadPool::kMaxWorkers + 1);
  // Mirrors the parallelChunks clamp; a run over zero nodes is one empty shard.
  threads = static_cast<unsigned>(std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(n, 1)));
  effectiveThreads_ = static_cast<int>(threads);
  chunkNodes_ = std::max<std::size_t>(1, (n + threads - 1) / threads);
  numShards_ = static_cast<unsigned>(std::max<std::size_t>(1, (n + chunkNodes_ - 1) / chunkNodes_));
  if (shards_.size() < numShards_) shards_.resize(numShards_);

  // One stepping phase: recycle the slots delivered this round, run `hook`
  // on every live node, and seal the round's sends.
  std::size_t pending = 0;   // Sealed sends due next round.
  std::size_t inFlight = 0;  // Plus delayed sends not yet due.
  const auto step = [&](int round, void (Protocol::*hook)(Context&)) {
    util::parallelChunks(n, threads, [&](std::size_t b, std::size_t e, unsigned c) {
      Shard& sh = shards_[c];
      releaseDelivered(sh);
      for (std::size_t v = b; v < e; ++v) {
        if (faults_.crashed(static_cast<int>(v), round)) continue;
        Context ctx(*this, static_cast<int>(v), round, sh);
        (protocol.*hook)(ctx);
      }
      sealShard(sh, round + 1);
    });
    pending = inFlight = 0;
    for (unsigned s = 0; s < numShards_; ++s) {
      pending += shards_[s].frozen.size();
      inFlight += shards_[s].frozen.size() + shards_[s].delayed.size();
    }
  };

  step(0, &Protocol::onStart);
  int round = 0;
  while (round < maxRounds && (inFlight > 0 || protocol.wantsMoreRounds())) {
    ++round;
    if (pending > 0) {
      HYBRID_OBS_STMT(if (obs::enabled()) {
        static obs::Histogram& hInbox = obs::Registry::global().histogram(
            "sim.round.inbox_size", {16, 64, 256, 1024, 4096, 16384, 65536, 262144});
        hInbox.record(static_cast<double>(pending));
        std::size_t live = 0;
        for (unsigned s = 0; s < numShards_; ++s) live += shards_[s].pool.liveCount();
        liveHighWater_ = std::max(liveHighWater_, static_cast<long>(live));
      });
      util::parallelChunks(n, threads, [&](std::size_t b, std::size_t e, unsigned c) {
        deliverChunk(protocol, b, e, c, round);
      });
      HYBRID_OBS_STMT(if (obs::enabled()) {
        static obs::Histogram& hChunk = obs::Registry::global().histogram(
            "sim.chunk.delivered", {16, 64, 256, 1024, 4096, 16384, 65536, 262144});
        for (unsigned c = 0; c < numShards_; ++c) {
          hChunk.record(static_cast<double>(shards_[c].inbox.size()));
        }
      });
      if (traceEnabled_) {
        for (unsigned c = 0; c < numShards_; ++c) {
          trace_ += shards_[c].trace;
          shards_[c].trace.clear();
        }
      }
    }
    step(round, &Protocol::onRoundEnd);
  }
  budget_.roundsUsed = round;
  budget_.overrun = budget_.budget > 0 && round > budget_.budget;
  flushObs(round);
  return round;
}

void Simulator::flushObs(int rounds) {
#ifndef HYBRID_OBS_DISABLED
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  static obs::Counter& cRuns = reg.counter("sim.runs");
  static obs::Counter& cRounds = reg.counter("sim.rounds");
  static obs::Counter& cSentAdHoc = reg.counter("sim.messages.sent_adhoc");
  static obs::Counter& cSentLong = reg.counter("sim.messages.sent_longrange");
  static obs::Counter& cWords = reg.counter("sim.words.sent");
  static obs::Counter& cDelivered = reg.counter("sim.messages.delivered");
  static obs::Counter& cDropped = reg.counter("sim.messages.dropped");
  static obs::Counter& cDuplicated = reg.counter("sim.messages.duplicated");
  static obs::Counter& cDelayed = reg.counter("sim.messages.delayed");
  static obs::Counter& cOverruns = reg.counter("sim.budget.overruns");
  static obs::Gauge& gSlabs = reg.gauge("sim.pool.slabs");
  static obs::Gauge& gSlots = reg.gauge("sim.pool.slots");
  static obs::Gauge& gLiveHigh = reg.gauge("sim.pool.live_high_water");
  static obs::Gauge& gThreadsReq = reg.gauge("sim.threads.requested");
  static obs::Gauge& gThreadsEff = reg.gauge("sim.threads.effective");
  // Shards tally on their own workers (one flush per run is the
  // contract); fold them together first.
  ObsTally total;
  long slabs = 0;
  long slots = 0;
  for (Shard& sh : shards_) {
    total.sentAdHoc += sh.tally.sentAdHoc;
    total.sentLongRange += sh.tally.sentLongRange;
    total.sentWords += sh.tally.sentWords;
    total.delivered += sh.tally.delivered;
    total.dropped += sh.tally.dropped;
    total.duplicated += sh.tally.duplicated;
    total.delayed += sh.tally.delayed;
    slabs += sh.pool.slabsAllocated();
    slots += static_cast<long>(sh.pool.slotCount());
    sh.tally = ObsTally{};
  }
  cRuns.add(1);
  cRounds.add(static_cast<std::uint64_t>(rounds));
  cSentAdHoc.add(static_cast<std::uint64_t>(total.sentAdHoc));
  cSentLong.add(static_cast<std::uint64_t>(total.sentLongRange));
  cWords.add(static_cast<std::uint64_t>(total.sentWords));
  cDelivered.add(static_cast<std::uint64_t>(total.delivered));
  cDropped.add(static_cast<std::uint64_t>(total.dropped));
  cDuplicated.add(static_cast<std::uint64_t>(total.duplicated));
  cDelayed.add(static_cast<std::uint64_t>(total.delayed));
  if (budget_.overrun) cOverruns.add(1);
  gSlabs.set(static_cast<double>(slabs));
  gSlots.set(static_cast<double>(slots));
  gLiveHigh.max(static_cast<double>(liveHighWater_));
  gThreadsReq.set(static_cast<double>(util::resolveThreads(threads_)));
  gThreadsEff.set(static_cast<double>(effectiveThreads_));
  liveHighWater_ = 0;
#else
  (void)rounds;
#endif
}

long Simulator::totalMessages() const {
  long total = 0;
  for (const auto& s : stats_) total += s.sentAdHoc + s.sentLongRange;
  return total;
}

long Simulator::maxWordsPerNode() const {
  long mx = 0;
  for (const auto& s : stats_) mx = std::max(mx, s.sentWords + s.receivedWords);
  return mx;
}

long Simulator::totalDropped() const {
  long total = 0;
  for (const auto& s : stats_) total += s.droppedAdHoc + s.droppedLongRange;
  return total;
}

void Simulator::resetStats() {
  stats_.assign(numNodes(), NodeStats{});
}

}  // namespace hybrid::sim
