#include "serve/route_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "protocols/incremental.hpp"

namespace hybrid::serve {

namespace {

bool insideAnyObstacle(geom::Vec2 p, const std::vector<geom::Polygon>& obstacles) {
  for (const auto& poly : obstacles) {
    if (!poly.boundingBox().contains(p)) continue;
    if (poly.contains(p)) return true;
  }
  return false;
}

bool duplicatesPoint(geom::Vec2 p, const std::vector<geom::Vec2>& points, int exceptIndex) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (static_cast<int>(i) == exceptIndex) continue;
    if (points[i] == p) return true;
  }
  return false;
}

/// Boundary rings as order-independent position sets. Positions rather
/// than node ids: ids shift when the point vector changes, positions only
/// change when the ring genuinely deformed.
std::vector<std::vector<geom::Vec2>> ringPositionSets(const core::HybridNetwork& net) {
  std::vector<std::vector<geom::Vec2>> out;
  for (const auto& ring : protocols::boundaryRings(net)) {
    std::vector<geom::Vec2> pos;
    pos.reserve(ring.size());
    for (int v : ring) pos.push_back(net.ldel().position(v));
    std::sort(pos.begin(), pos.end());
    out.push_back(std::move(pos));
  }
  return out;
}

}  // namespace

const char* epochBuildName(EpochBuild build) {
  switch (build) {
    case EpochBuild::Reused:
      return "reused";
    case EpochBuild::Incremental:
      return "incremental";
    case EpochBuild::Full:
      break;
  }
  return "full";
}

Snapshot::~Snapshot() {
  if (!live_) return;
  const long remaining = live_->fetch_sub(1, std::memory_order_relaxed) - 1;
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("serve.snapshots.retired").add();
    reg.gauge("serve.snapshots.live").set(static_cast<double>(remaining));
  });
}

RouteService::RouteService(scenario::Scenario initial, ServiceOptions options)
    : options_(std::move(options)),
      live_(std::make_shared<std::atomic<long>>(0)),
      stream_(options_.updateFaults) {
  // A default-constructed radio model follows the scenario; explicitly
  // configured radii (QUDG studies) are the caller's responsibility.
  if (options_.ldel.radius == delaunay::LDelOptions{}.radius &&
      options_.ldel.reliableRadius == delaunay::LDelOptions{}.reliableRadius) {
    options_.ldel.radius = initial.radius;
    options_.ldel.reliableRadius = initial.radius;
  }
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = 0;
  snap->net = std::make_shared<core::HybridNetwork>(initial.points, options_.ldel,
                                                    options_.router, nullptr);
  snap->scenario = std::move(initial);
  snap->build = EpochBuild::Full;
  snap->live_ = live_;
  live_->fetch_add(1, std::memory_order_relaxed);
  rings_ = ringPositionSets(*snap->net);
  current_ = std::move(snap);
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.gauge("serve.epoch").set(0.0);
    reg.gauge("serve.snapshots.live").set(1.0);
  });
}

std::shared_ptr<const Snapshot> RouteService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapMu_);
  return current_;
}

std::vector<routing::RouteResult> RouteService::routeBatch(
    std::span<const routing::RoutePair> pairs, int threads) const {
  const auto snap = snapshot();
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("serve.batches").add();
    reg.counter("serve.queries").add(pairs.size());
  });
  return snap->net->routeBatch(pairs, threads);
}

void RouteService::enqueue(scenario::Update update) {
  std::lock_guard<std::mutex> lock(queueMu_);
  pending_.push_back(std::move(update));
}

void RouteService::enqueue(std::vector<scenario::Update> updates) {
  std::lock_guard<std::mutex> lock(queueMu_);
  for (auto& u : updates) pending_.push_back(std::move(u));
}

std::size_t RouteService::pendingUpdates() const {
  std::lock_guard<std::mutex> lock(queueMu_);
  return pending_.size();
}

void RouteService::applyOne(const scenario::Update& update, scenario::Scenario& scenario,
                            EpochStats& stats) const {
  auto& pts = scenario.points;
  switch (update.kind) {
    case scenario::UpdateKind::Join: {
      if (insideAnyObstacle(update.pos, scenario.obstacles) ||
          duplicatesPoint(update.pos, pts, -1)) {
        ++stats.rejected;
        return;
      }
      pts.push_back(update.pos);
      ++stats.applied;
      return;
    }
    case scenario::UpdateKind::Leave: {
      if (update.node < 0 || update.node >= static_cast<int>(pts.size()) ||
          pts.size() <= kMinNodes) {
        ++stats.rejected;
        return;
      }
      pts.erase(pts.begin() + update.node);
      ++stats.applied;
      return;
    }
    case scenario::UpdateKind::Move: {
      if (update.node < 0 || update.node >= static_cast<int>(pts.size()) ||
          insideAnyObstacle(update.pos, scenario.obstacles) ||
          duplicatesPoint(update.pos, pts, update.node)) {
        ++stats.rejected;
        return;
      }
      pts[static_cast<std::size_t>(update.node)] = update.pos;
      ++stats.applied;
      return;
    }
    case scenario::UpdateKind::ObstacleAdd: {
      if (update.poly.size() < 3) {
        ++stats.rejected;
        return;
      }
      geom::Polygon poly(update.poly);
      if (poly.area() <= 0.0) {
        ++stats.rejected;
        return;
      }
      if (!poly.isCounterClockwise()) poly.reverse();
      std::size_t covered = 0;
      for (const auto& p : pts) {
        if (poly.contains(p)) ++covered;
      }
      if (pts.size() - covered < kMinNodes) {
        ++stats.rejected;
        return;
      }
      if (covered > 0) {
        std::erase_if(pts, [&](geom::Vec2 p) { return poly.contains(p); });
        stats.evicted += static_cast<int>(covered);
      }
      scenario.obstacles.push_back(std::move(poly));
      ++stats.applied;
      return;
    }
    case scenario::UpdateKind::ObstacleRemove: {
      if (update.obstacle < 0 ||
          update.obstacle >= static_cast<int>(scenario.obstacles.size())) {
        ++stats.rejected;
        return;
      }
      scenario.obstacles.erase(scenario.obstacles.begin() + update.obstacle);
      ++stats.applied;
      return;
    }
  }
  ++stats.rejected;
}

void RouteService::publish(std::shared_ptr<const Snapshot> next, EpochStats& stats) {
  {
    std::lock_guard<std::mutex> lock(snapMu_);
    // Pins beyond the service's own reference = readers still holding the
    // outgoing epoch at swap time (racy by nature; a load-shedding signal,
    // not an exact count).
    stats.readerPins =
        current_.use_count() > 1 ? static_cast<std::size_t>(current_.use_count() - 1) : 0;
    current_ = std::move(next);
    epoch_.store(stats.epoch, std::memory_order_release);
  }
  HYBRID_OBS_STMT(if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.gauge("serve.epoch").set(static_cast<double>(stats.epoch));
    reg.gauge("serve.swap_ms").set(stats.swapMs);
    reg.gauge("serve.snapshots.live").set(
        static_cast<double>(live_->load(std::memory_order_relaxed)));
    reg.histogram("serve.reader_pins", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
        .record(static_cast<double>(stats.readerPins));
    reg.counter(std::string("serve.rebuilds.") + epochBuildName(stats.build)).add();
    reg.counter("serve.updates.applied").add(static_cast<std::uint64_t>(stats.applied));
    reg.counter("serve.updates.rejected").add(static_cast<std::uint64_t>(stats.rejected));
    reg.counter("serve.updates.evicted").add(static_cast<std::uint64_t>(stats.evicted));
  });
}

EpochStats RouteService::applyUpdates() {
  const auto t0 = std::chrono::steady_clock::now();
  EpochStats stats;
  stats.epoch = epoch_.load(std::memory_order_relaxed) + 1;

  std::vector<scenario::Update> batch;
  {
    std::lock_guard<std::mutex> lock(queueMu_);
    const std::size_t take = std::min(kMaxUpdatesPerEpoch, pending_.size());
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }
  stats.offered = static_cast<int>(batch.size());

  auto arrived = stream_.filter(static_cast<int>(stats.epoch), std::move(batch));
  stats.arrived = static_cast<int>(arrived.size());

  const auto prev = snapshot();
  scenario::Scenario next = prev->scenario;
  for (const auto& u : arrived) applyOne(u, next, stats);

  // Same topology (the point set is the only network build input) means
  // the previous epoch's network is provably identical: republish it.
  const auto build = [&] {
    if (next.points == prev->scenario.points) return prev->net;
    return std::make_shared<const core::HybridNetwork>(next.points, options_.ldel,
                                                       options_.router, &prev->net->router());
  };
  auto net = build();
  if (net != prev->net) {
    // The connectivity filter reads the epoch's own UDG; only a
    // disconnected one costs a second build.
    const int dropped = scenario::keepLargestComponent(next.points, net->udg());
    if (dropped > 0 && next.points.size() < kMinNodes) {
      // The filter would break the node floor that applyOne keeps per
      // update: reject the whole batch, keep the previous epoch.
      next = prev->scenario;
      stats.rejected += stats.applied;
      stats.applied = 0;
      stats.evicted = 0;
      net = prev->net;
    } else if (dropped > 0) {
      stats.evicted += dropped;
      net = build();
      HYBRID_OBS_STMT(if (obs::enabled() && net != prev->net) {
        obs::Registry::global().counter("serve.rebuilds.disconnected").add();
      });
    }
  }

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = stats.epoch;
  snap->net = std::move(net);
  if (snap->net == prev->net) {
    snap->build = EpochBuild::Reused;
  } else {
    snap->build = snap->net->router().adoptedDonorOverlay() ? EpochBuild::Incremental
                                                            : EpochBuild::Full;
  }
  stats.build = snap->build;
  stats.nodes = next.points.size();
  snap->scenario = std::move(next);
  snap->live_ = live_;
  live_->fetch_add(1, std::memory_order_relaxed);

  if (snap->build == EpochBuild::Reused) {
    stats.totalRings = 0;
    stats.changedRings = 0;
  } else {
    // E12-style membership diff: rings whose node *positions* changed.
    auto curRings = ringPositionSets(*snap->net);
    stats.totalRings = static_cast<int>(curRings.size());
    for (const auto& ring : curRings) {
      if (std::find(rings_.begin(), rings_.end(), ring) == rings_.end()) ++stats.changedRings;
    }
    rings_ = std::move(curRings);
  }

  switch (snap->build) {
    case EpochBuild::Reused:
      ++reusedEpochs_;
      break;
    case EpochBuild::Incremental:
      ++incrementalRebuilds_;
      break;
    case EpochBuild::Full:
      ++fullRebuilds_;
      break;
  }

  stats.swapMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  publish(std::move(snap), stats);
  history_.push_back(stats);
  return stats;
}

bool RouteService::drainOnce() {
  if (pendingUpdates() == 0 && stream_.inFlight() == 0) return false;
  applyUpdates();
  return true;
}

}  // namespace hybrid::serve
