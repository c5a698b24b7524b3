#include "protocols/ring_pipeline.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "geom/angle.hpp"
#include "geom/polygon.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "protocols/reliable.hpp"

namespace hybrid::protocols {

namespace {

constexpr long kNoId = std::numeric_limits<long>::max();

// Per-(node, ring) protocol state. A node lying on several boundary rings
// runs one independent instance per ring; messages are tagged with the
// ring index (first entry of Message::ints) to dispatch to the right one.
struct InstState {
  int ring = -1;
  int node = -1;
  int pred0 = -1;
  int succ0 = -1;
  double ownTurnAngle = 0.0;

  // Phase 1: pointer jumping. Messages are tagged with the sender's
  // doubling step and buffered per step, so delayed or reordered arrivals
  // (fault injection + retries) are consumed in step order instead of
  // corrupting the doubling algebra.
  int curPred = -1;
  int curSucc = -1;
  long minSucc = kNoId;  ///< min ID over (v, curSucc]
  long minPred = kNoId;  ///< min ID over [curPred, v)
  std::vector<int> succDist;  ///< contact at ring distance 2^j forward
  std::vector<int> predDist;  ///< contact at ring distance 2^j backward
  int pjStep = 0;
  std::map<int, std::pair<int, long>> pjToPred;  ///< step -> (succ, minSucc)
  std::map<int, std::pair<int, long>> pjToSucc;  ///< step -> (pred, minPred)
  bool elected = false;
  int leader = -1;

  // Phase 2: ring-distance IDs.
  long id = kNoId;
  long bestForwarded = kNoId;

  // Phase 3: aggregation partials. The binomial tree is event-driven: a
  // node fires its level once every expected child partial arrived, which
  // it knows exactly from the contacts' ID reports.
  long count = 1;
  double angle = 0.0;
  long maxId = 0;
  std::vector<int> hullIds;
  std::vector<geom::Vec2> hullPts;
  std::vector<int> childLevels;
  int levelCap = 0;                ///< Uniform per-ring contact-table depth.
  std::map<int, long> contactId;   ///< level -> ring ID of succDist[level].
  std::set<int> receivedChildren;  ///< Levels whose partial arrived.
  bool fired = false;
  bool aggDone = false;

  // Phase 4: results.
  bool haveResult = false;
  long ringSize = 0;
  double totalAngle = 0.0;
  std::vector<int> finalHull;
};

// All instances, grouped by node for handler dispatch.
class Instances {
 public:
  explicit Instances(std::size_t numNodes) : byNode_(numNodes) {}

  InstState& add(int node, int ring) {
    auto& list = byNode_[static_cast<std::size_t>(node)];
    list.push_back(InstState{});
    list.back().ring = ring;
    list.back().node = node;
    return list.back();
  }

  InstState* find(int node, int ring) {
    for (auto& s : byNode_[static_cast<std::size_t>(node)]) {
      if (s.ring == ring) return &s;
    }
    return nullptr;
  }

  std::vector<InstState>& of(int node) { return byNode_[static_cast<std::size_t>(node)]; }
  std::size_t numNodes() const { return byNode_.size(); }

 private:
  std::vector<std::vector<InstState>> byNode_;
};

void mergeHullInto(InstState& s, const std::vector<int>& ids,
                   const std::vector<geom::Vec2>& pts) {
  std::vector<int> allIds = s.hullIds;
  std::vector<geom::Vec2> allPts = s.hullPts;
  allIds.insert(allIds.end(), ids.begin(), ids.end());
  allPts.insert(allPts.end(), pts.begin(), pts.end());
  const auto hull = geom::convexHullIndices(allPts);
  s.hullIds.clear();
  s.hullPts.clear();
  for (int i : hull) {
    s.hullIds.push_back(allIds[static_cast<std::size_t>(i)]);
    s.hullPts.push_back(allPts[static_cast<std::size_t>(i)]);
  }
  if (s.hullIds.empty() && !allIds.empty()) {  // degenerate (collinear) sets
    s.hullIds = allIds;
    s.hullPts = allPts;
  }
}

int lowestSetBit(long x) {
  int j = 0;
  while (((x >> j) & 1) == 0) ++j;
  return j;
}

// ---------------------------------------------------------------------------
// Phase 1: pointer jumping with leader election (paper §5.2).
// ---------------------------------------------------------------------------
class PointerJumping : public sim::Protocol {
 public:
  explicit PointerJumping(Instances& st) : st_(st) {}

  static constexpr int kToPred = 1;  // ints: [ring, step, newSucc, minSucc]
  static constexpr int kToSucc = 2;  // ints: [ring, step, newPred, minPred]

  void onStart(sim::Context& ctx) override {
    for (InstState& s : st_.of(ctx.self())) {
      s.curPred = s.pred0;
      s.curSucc = s.succ0;
      s.minSucc = s.succ0;
      s.minPred = s.pred0;
      s.succDist = {s.succ0};
      s.predDist = {s.pred0};
      sendPair(ctx, s);
    }
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    InstState* s = st_.find(ctx.self(), static_cast<int>(m.ints[0]));
    if (s == nullptr) return;
    const int step = static_cast<int>(m.ints[1]);
    const auto slot = std::make_pair(static_cast<int>(m.ints[2]),
                                     static_cast<long>(m.ints[3]));
    if (m.type == kToPred) {
      s->pjToPred.emplace(step, slot);
    } else if (m.type == kToSucc) {
      s->pjToSucc.emplace(step, slot);
    }
  }

  void onRoundEnd(sim::Context& ctx) override {
    for (InstState& s : st_.of(ctx.self())) {
      // Consume buffered steps in order; usually one per round, but a
      // node catches up in one round after a delayed message arrives.
      while (true) {
        const auto ip = s.pjToPred.find(s.pjStep);
        const auto is = s.pjToSucc.find(s.pjStep);
        if (ip == s.pjToPred.end() || is == s.pjToSucc.end()) break;
        s.curSucc = ip->second.first;
        s.minSucc = std::min(s.minSucc, ip->second.second);
        s.curPred = is->second.first;
        s.minPred = std::min(s.minPred, is->second.second);
        s.pjToPred.erase(ip);
        s.pjToSucc.erase(is);
        ++s.pjStep;
        s.succDist.push_back(s.curSucc);
        s.predDist.push_back(s.curPred);
        if (s.elected) continue;  // post-election doubling applied; no more sends
        if (s.minSucc == s.minPred) {
          // Both arcs wrapped far enough to cover the ring (minus v
          // itself). One more doubling round runs so the contact tables
          // reach level J+1 — the ID assignment needs sums up to
          // 2^(J+2)-1 >= k-1.
          s.elected = true;
          s.leader = static_cast<int>(std::min(s.minSucc, static_cast<long>(ctx.self())));
        }
        sendPair(ctx, s);
      }
    }
  }

 private:
  void sendPair(sim::Context& ctx, InstState& s) {
    sim::Message toPred;
    toPred.type = kToPred;
    toPred.ints = {s.ring, s.pjStep, s.curSucc, s.minSucc};
    toPred.ids = {s.curSucc};
    ctx.sendLongRange(s.curPred, std::move(toPred));
    sim::Message toSucc;
    toSucc.type = kToSucc;
    toSucc.ints = {s.ring, s.pjStep, s.curPred, s.minPred};
    toSucc.ids = {s.curPred};
    ctx.sendLongRange(s.curSucc, std::move(toSucc));
  }

  Instances& st_;
};

// ---------------------------------------------------------------------------
// Phase 2: ring-distance (hypercube) ID assignment from the leader.
// Order-free: every node keeps the minimum received value and forwards
// only strict improvements, so delayed or reordered deliveries converge
// to the same IDs.
// ---------------------------------------------------------------------------
class IdAssignment : public sim::Protocol {
 public:
  explicit IdAssignment(Instances& st) : st_(st) {}

  static constexpr int kAssign = 3;  // ints: [ring, value, level]

  void onStart(sim::Context& ctx) override {
    for (InstState& s : st_.of(ctx.self())) {
      if (s.leader != ctx.self()) continue;
      s.id = 0;
      for (std::size_t j = 0; j < s.succDist.size(); ++j) {
        const int target = s.succDist[j];
        if (target == ctx.self()) continue;  // wrapped pointer
        sim::Message m;
        m.type = kAssign;
        m.ints = {s.ring, static_cast<std::int64_t>(1) << j, static_cast<std::int64_t>(j)};
        ctx.sendLongRange(target, std::move(m));
      }
    }
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    InstState* s = st_.find(ctx.self(), static_cast<int>(m.ints[0]));
    if (s == nullptr) return;
    const long value = static_cast<long>(m.ints[1]);
    const int level = static_cast<int>(m.ints[2]);
    s->id = std::min(s->id, value);
    if (value >= s->bestForwarded) return;  // an equal pass already forwarded
    s->bestForwarded = value;
    for (int j = 0; j < level; ++j) {
      const int target = s->succDist[static_cast<std::size_t>(j)];
      if (target == ctx.self()) continue;
      sim::Message fwd;
      fwd.type = kAssign;
      fwd.ints = {s->ring, value + (static_cast<std::int64_t>(1) << j),
                  static_cast<std::int64_t>(j)};
      ctx.sendLongRange(target, std::move(fwd));
    }
  }

 private:
  Instances& st_;
};

// ---------------------------------------------------------------------------
// Phase 3: binomial-tree aggregation of ring size, turning angle and the
// convex hull (paper §5.3/§5.4). Event-driven: contacts first exchange
// their ring IDs, which gives every node its exact child set (child at
// level j iff the forward-2^j contact's ID is id + 2^j); a node pushes
// its partial to its parent once all child partials arrived. No round
// schedule — correct under arbitrary message delay.
// ---------------------------------------------------------------------------
class Aggregation : public sim::Protocol {
 public:
  explicit Aggregation(Instances& st) : st_(st) {}

  static constexpr int kPartial = 4;
  // ints: [ring, level, count, maxId, hullIds...]; reals: [angle, X..., Y...]
  static constexpr int kIdReport = 6;  // ints: [ring, level, id]

  void onStart(sim::Context& ctx) override {
    for (InstState& s : st_.of(ctx.self())) {
      s.count = 1;
      s.angle = s.ownTurnAngle;
      s.maxId = s.id == kNoId ? 0 : s.id;
      s.hullIds = {ctx.self()};
      s.hullPts = {ctx.position()};
      s.childLevels.clear();
      if (s.id == kNoId) {
        s.fired = true;  // never got an ID (degenerate ring): inert
        continue;
      }
      for (int j = 0; j < s.levelCap; ++j) {
        const int target = s.predDist[static_cast<std::size_t>(j)];
        if (target == ctx.self()) continue;
        sim::Message m;
        m.type = kIdReport;
        m.ints = {s.ring, j, s.id};
        ctx.sendLongRange(target, std::move(m));
      }
      maybeFire(ctx, s);
    }
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    InstState* s = st_.find(ctx.self(), static_cast<int>(m.ints[0]));
    if (s == nullptr) return;
    if (m.type == kIdReport) {
      s->contactId.emplace(static_cast<int>(m.ints[1]), static_cast<long>(m.ints[2]));
      maybeFire(ctx, *s);
      return;
    }
    if (m.type != kPartial) return;
    const int level = static_cast<int>(m.ints[1]);
    if (!s->receivedChildren.insert(level).second) return;  // duplicate copy
    s->count += static_cast<long>(m.ints[2]);
    s->maxId = std::max(s->maxId, static_cast<long>(m.ints[3]));
    s->angle += m.reals[0];
    const std::size_t h = m.ints.size() - 4;
    std::vector<int> ids;
    std::vector<geom::Vec2> pts;
    for (std::size_t i = 0; i < h; ++i) {
      ids.push_back(static_cast<int>(m.ints[4 + i]));
      pts.push_back({m.reals[1 + i], m.reals[1 + h + i]});
    }
    mergeHullInto(*s, ids, pts);
    s->childLevels.push_back(level);
    maybeFire(ctx, *s);
  }

 private:
  // The level this instance pushes its partial at: the lowest set bit of
  // its ring ID. The leader (ID 0) never pushes; it is done when all its
  // children fired.
  static int fireLevel(const InstState& s) {
    return s.id == 0 ? s.levelCap : std::min(lowestSetBit(s.id), s.levelCap);
  }

  void maybeFire(sim::Context& ctx, InstState& s) {
    if (s.fired) return;
    const int jf = fireLevel(s);
    for (int j = 0; j < jf; ++j) {
      if (s.succDist[static_cast<std::size_t>(j)] == s.node) continue;  // wrapped
      const auto it = s.contactId.find(j);
      if (it == s.contactId.end()) return;  // ID report still in flight
      // The forward-2^j contact is our child iff its ID is exactly
      // id + 2^j (a smaller ID means the pointer wrapped past the ring
      // end — no such child).
      if (it->second != s.id + (static_cast<long>(1) << j)) continue;
      if (!s.receivedChildren.contains(j)) return;  // partial still missing
    }
    s.fired = true;
    if (s.id == 0) {
      s.aggDone = true;
      return;
    }
    const int j = lowestSetBit(s.id);
    if (static_cast<std::size_t>(j) >= s.predDist.size()) return;
    const int target = s.predDist[static_cast<std::size_t>(j)];
    if (target == s.node) return;
    sim::Message m;
    m.type = kPartial;
    m.ints = {s.ring, j, s.count, s.maxId};
    for (int idv : s.hullIds) m.ints.push_back(idv);
    m.reals = {s.angle};
    for (const auto& p : s.hullPts) m.reals.push_back(p.x);
    for (const auto& p : s.hullPts) m.reals.push_back(p.y);
    m.ids = s.hullIds;
    ctx.sendLongRange(target, std::move(m));
  }

  Instances& st_;
};

// ---------------------------------------------------------------------------
// Phase 4: broadcast of the aggregate back down the binomial tree.
// ---------------------------------------------------------------------------
class BroadcastDown : public sim::Protocol {
 public:
  explicit BroadcastDown(Instances& st) : st_(st) {}

  static constexpr int kResult = 5;
  // ints: [ring, ringSize, leader, hullIds...]; reals: [angle]

  void onStart(sim::Context& ctx) override {
    for (InstState& s : st_.of(ctx.self())) {
      if (s.id != 0) continue;
      s.ringSize = s.maxId + 1;
      s.totalAngle = s.angle;
      s.finalHull = s.hullIds;
      s.haveResult = true;
      forward(ctx, s);
    }
  }

  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    InstState* s = st_.find(ctx.self(), static_cast<int>(m.ints[0]));
    if (s == nullptr || s->haveResult) return;
    s->ringSize = static_cast<long>(m.ints[1]);
    s->totalAngle = m.reals[0];
    s->finalHull.assign(m.ints.begin() + 3, m.ints.end());
    s->haveResult = true;
    forward(ctx, *s);
  }

 private:
  void forward(sim::Context& ctx, InstState& s) {
    for (int j : s.childLevels) {
      if (static_cast<std::size_t>(j) >= s.succDist.size()) continue;
      const int target = s.succDist[static_cast<std::size_t>(j)];
      if (target == ctx.self()) continue;
      sim::Message m;
      m.type = kResult;
      m.ints = {s.ring, s.ringSize, s.leader};
      for (int idv : s.finalHull) m.ints.push_back(idv);
      m.reals = {s.totalAngle};
      m.ids = s.finalHull;
      ctx.sendLongRange(target, std::move(m));
    }
  }

  Instances& st_;
};

}  // namespace

RingPipelineRounds& RingPipelineRounds::operator+=(const RingPipelineRounds& o) {
  pointerJumping += o.pointerJumping;
  idAssignment += o.idAssignment;
  aggregation += o.aggregation;
  broadcast += o.broadcast;
  return *this;
}

RingPipeline::RingPipeline(sim::Simulator& simulator, RingInputs inputs,
                           const RetryPolicy* retry)
    : sim_(simulator), inputs_(std::move(inputs)), withRetry_(retry != nullptr) {
  ringId_.assign(sim_.numNodes(), -1);
  // Make each ring simple (drop repeated visits through cut vertices).
  for (auto& ring : inputs_.rings) {
    std::set<int> seen;
    std::vector<int> simple;
    for (int v : ring) {
      if (seen.insert(v).second) simple.push_back(v);
    }
    ring = std::move(simple);
  }
  // Ring neighbors know each other: for inner holes they are LDel (hence
  // UDG) neighbors; for outer holes the two endpoints of a long hull edge
  // learned each other while computing the outer boundary's convex hull
  // (paper §5.4). Model that as an out-of-band introduction.
  for (const auto& ring : inputs_.rings) {
    const std::size_t k = ring.size();
    for (std::size_t i = 0; i < k; ++i) {
      sim_.introduce(ring[i], ring[(i + 1) % k]);
      sim_.introduce(ring[(i + 1) % k], ring[i]);
    }
  }
}

int RingPipeline::runPhase(sim::Protocol& phase) {
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    static obs::Counter& cPhases = reg.counter("proto.ring.phases");
    cPhases.add(1);
  });
  const int rounds = runProtocol(sim_, phase, withRetry_, &reliableStats_);
  HYBRID_OBS_STMT(if (obs::enabled()) {
    obs::Registry::global().counter("proto.ring.rounds").add(static_cast<std::uint64_t>(rounds));
  });
  return rounds;
}

std::vector<RingResult> RingPipeline::run() {
  obs::ScopedSpan span("proto.ring");
  Instances st(sim_.numNodes());
  for (std::size_t ri = 0; ri < inputs_.rings.size(); ++ri) {
    const auto& ring = inputs_.rings[ri];
    if (ring.size() < 3) continue;
    const int k = static_cast<int>(ring.size());
    for (int i = 0; i < k; ++i) {
      const int node = ring[static_cast<std::size_t>(i)];
      InstState& s = st.add(node, static_cast<int>(ri));
      s.pred0 = ring[static_cast<std::size_t>((i + k - 1) % k)];
      s.succ0 = ring[static_cast<std::size_t>((i + 1) % k)];
      s.ownTurnAngle = geom::signedTurnAngle(sim_.position(s.pred0), sim_.position(node),
                                             sim_.position(s.succ0));
    }
  }

  PointerJumping p1(st);
  rounds_.pointerJumping = runPhase(p1);

  IdAssignment p2(st);
  rounds_.idAssignment = runPhase(p2);

  // Uniform per-ring contact-table depth: the aggregation's child
  // arithmetic needs senders and receivers to agree on the levels in
  // play, and tables can differ by a level across ring members.
  std::vector<int> cap(inputs_.rings.size(), std::numeric_limits<int>::max());
  for (std::size_t v = 0; v < st.numNodes(); ++v) {
    for (const auto& s : st.of(static_cast<int>(v))) {
      const int depth = static_cast<int>(std::min(s.succDist.size(), s.predDist.size()));
      cap[static_cast<std::size_t>(s.ring)] =
          std::min(cap[static_cast<std::size_t>(s.ring)], depth);
    }
  }
  for (std::size_t v = 0; v < st.numNodes(); ++v) {
    for (auto& s : st.of(static_cast<int>(v))) {
      s.levelCap = cap[static_cast<std::size_t>(s.ring)];
    }
  }

  Aggregation p3(st);
  rounds_.aggregation = runPhase(p3);

  BroadcastDown p4(st);
  rounds_.broadcast = runPhase(p4);

  for (std::size_t v = 0; v < st.numNodes(); ++v) {
    const auto& list = st.of(static_cast<int>(v));
    if (!list.empty()) {
      ringId_[v] = list.front().id == kNoId ? -1 : static_cast<int>(list.front().id);
    }
  }

  std::vector<RingResult> out(inputs_.rings.size());
  for (std::size_t ri = 0; ri < inputs_.rings.size(); ++ri) {
    for (int v : inputs_.rings[ri]) {
      const InstState* s = st.find(v, static_cast<int>(ri));
      if (s == nullptr || !s->haveResult) continue;
      out[ri].leader = s->leader;
      out[ri].size = static_cast<int>(s->ringSize);
      out[ri].turningAngle = s->totalAngle;
      out[ri].hull = s->finalHull;
      break;
    }
  }
  return out;
}

}  // namespace hybrid::protocols
