#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/hybrid_network.hpp"
#include "scenario/churn.hpp"
#include "serve/update_stream.hpp"

namespace hybrid::serve {

/// How an epoch's network came to be (cheapest first). The service only
/// ever reuses state whose build inputs are verifiably unchanged, so every
/// tier serves answers bit-identical to a fresh build on the same
/// topology — "incremental" trades build work, never correctness.
enum class EpochBuild {
  Reused,       ///< Point set unchanged: previous epoch's network republished.
  Incremental,  ///< Rebuilt, but the overlay slab was adopted from the
                ///< previous epoch (identical overlay plan — see
                ///< routing::OverlayPlan).
  Full,         ///< Rebuilt from scratch; the loud tier worth watching.
};

const char* epochBuildName(EpochBuild build);

/// One published epoch: an immutable scenario + network pair that readers
/// pin with shared_ptr and release whenever they finish — RCU with
/// reference counting standing in for grace periods. A snapshot retires
/// (destructor runs, `serve.snapshots.retired` ticks) when its last
/// reader drains; the service never blocks on old epochs.
struct Snapshot {
  std::uint64_t epoch = 0;
  scenario::Scenario scenario;
  std::shared_ptr<const core::HybridNetwork> net;
  EpochBuild build = EpochBuild::Full;

  ~Snapshot();

 private:
  friend class RouteService;
  std::shared_ptr<std::atomic<long>> live_;  ///< Service's live-snapshot count.
};

/// What one applyUpdates() epoch did, in the order things happened.
struct EpochStats {
  std::uint64_t epoch = 0;
  EpochBuild build = EpochBuild::Full;
  int offered = 0;   ///< Updates popped from the queue this epoch.
  int arrived = 0;   ///< After the fault filter (dups in, drops/delays out).
  int applied = 0;
  int rejected = 0;  ///< Stale index / duplicate point / node floor / ...
  int evicted = 0;   ///< Nodes removed by obstacles or the connectivity filter.
  int totalRings = 0;
  int changedRings = 0;  ///< E12-style boundary-ring membership diff vs prev.
  double swapMs = 0.0;   ///< Build + publish wall time.
  std::size_t nodes = 0;
  std::size_t readerPins = 0;  ///< References on the outgoing snapshot at swap.
};

struct ServiceOptions {
  delaunay::LDelOptions ldel;      ///< Radio model. A default-constructed value
                                   ///< adopts the initial scenario's radius.
  routing::HybridOptions router;   ///< Router/overlay configuration.
  sim::FaultConfig updateFaults;   ///< Fault injection on the update stream.
};

/// Long-running serving loop over HybridNetwork: concurrent readers route
/// against an immutable epoch snapshot while a single updater applies a
/// bounded batch of churn updates, rebuilds what actually changed and
/// publishes the next epoch with an atomic pointer swap.
///
/// Threading contract: snapshot(), routeBatch() and epoch() are safe from
/// any number of threads, concurrently with one updater thread calling
/// enqueue()/applyUpdates()/drainOnce(). Updater-side accessors
/// (history(), streamStats(), pending inspection) belong to the updater
/// thread. Two threads must not run applyUpdates() concurrently.
///
/// Correctness contract: every epoch's routeBatch() answers are
/// bit-identical to a freshly built HybridNetwork over that epoch's point
/// set at any thread count (the churn_serving oracle). Incremental repair
/// therefore means *verified-input reuse*: the point set didn't change
/// (epoch republished) or the overlay build inputs didn't change (overlay
/// slab adopted) — never approximate patching.
class RouteService {
 public:
  /// Queue drain bound: updates popped per applyUpdates() epoch.
  static constexpr std::size_t kMaxUpdatesPerEpoch = 64;
  /// Node floor: no batch takes an epoch below it, so a deployment that
  /// starts with at least kMinNodes nodes keeps ids 0..kMinNodes-1 valid
  /// in every epoch.
  static constexpr std::size_t kMinNodes = 8;

  explicit RouteService(scenario::Scenario initial, ServiceOptions options = {});

  /// Pins the current epoch. Hold the pointer for as long as the epoch is
  /// needed; dropping it is what lets old epochs retire.
  std::shared_ptr<const Snapshot> snapshot() const;

  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Serves one batch against the current epoch (pins it internally, so a
  /// concurrent swap cannot pull the network out from under the batch).
  std::vector<routing::RouteResult> routeBatch(std::span<const routing::RoutePair> pairs,
                                               int threads = 1) const;

  void enqueue(scenario::Update update);
  void enqueue(std::vector<scenario::Update> updates);
  std::size_t pendingUpdates() const;

  /// Applies one epoch's worth of updates (up to kMaxUpdatesPerEpoch through
  /// the fault filter), builds the next snapshot and publishes it. Always
  /// advances the epoch, even when everything was rejected — an empty epoch
  /// is a Reused republish. Updater thread only.
  EpochStats applyUpdates();

  /// applyUpdates() only if updates are pending or delayed in the fault
  /// filter; returns whether an epoch was published. Updater thread only.
  bool drainOnce();

  /// Per-epoch stats since construction (epoch 0 excluded). Updater only.
  const std::vector<EpochStats>& history() const { return history_; }
  const StreamStats& streamStats() const { return stream_.stats(); }

  /// Snapshots not yet retired (current one included).
  long liveSnapshots() const { return live_->load(std::memory_order_relaxed); }
  std::uint64_t fullRebuilds() const { return fullRebuilds_; }
  std::uint64_t incrementalRebuilds() const { return incrementalRebuilds_; }
  std::uint64_t reusedEpochs() const { return reusedEpochs_; }

  const ServiceOptions& options() const { return options_; }

 private:
  void applyOne(const scenario::Update& update, scenario::Scenario& scenario,
                EpochStats& stats) const;
  void publish(std::shared_ptr<const Snapshot> next, EpochStats& stats);

  ServiceOptions options_;
  std::shared_ptr<std::atomic<long>> live_;

  mutable std::mutex snapMu_;               ///< Guards current_.
  std::shared_ptr<const Snapshot> current_;  // Immutable once published.
  std::atomic<std::uint64_t> epoch_{0};

  mutable std::mutex queueMu_;  ///< Guards pending_.
  std::deque<scenario::Update> pending_;

  // Updater-thread state.
  FaultyUpdateStream stream_;
  /// The current epoch's boundary rings as sorted position sets.
  std::vector<std::vector<geom::Vec2>> rings_;
  std::vector<EpochStats> history_;
  std::uint64_t fullRebuilds_ = 0;
  std::uint64_t incrementalRebuilds_ = 0;
  std::uint64_t reusedEpochs_ = 0;
};

}  // namespace hybrid::serve
