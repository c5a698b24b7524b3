#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "protocols/incremental.hpp"
#include "routing/stateless_router.hpp"
#include "scenario/churn.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "serve/route_service.hpp"
#include "testkit/oracles.hpp"

namespace hybrid {
namespace {

scenario::Scenario makeDeployment(unsigned seed, double side = 10.0) {
  scenario::ScenarioParams p;
  p.width = p.height = side;
  p.seed = seed;
  p.obstacles.push_back(
      scenario::regularPolygonObstacle({side / 2.0, side / 2.0}, side / 5.0, 6));
  return scenario::makeScenario(p);
}

/// Nine nodes 0.9 apart on a line at radius 1: every inner node is a cut
/// vertex of the unit disk graph.
scenario::Scenario lineDeployment() {
  scenario::Scenario sc;
  for (int i = 0; i < 9; ++i) sc.points.push_back({0.9 * i, 0.0});
  sc.radius = 1.0;
  return sc;
}

std::vector<routing::RoutePair> somePairs(const serve::RouteService& service,
                                          std::size_t want = 12) {
  const auto snap = service.snapshot();
  const int n = static_cast<int>(snap->scenario.points.size());
  std::vector<routing::RoutePair> pairs;
  for (std::size_t i = 0; pairs.size() < want && static_cast<int>(i) + 1 < n; i += 3) {
    pairs.push_back({static_cast<int>(i), n - 1 - static_cast<int>(i)});
  }
  return pairs;
}

bool sameRoute(const routing::RouteResult& a, const routing::RouteResult& b) {
  return a.path == b.path && a.delivered == b.delivered && a.blockedHole == b.blockedHole &&
         a.fallbacks == b.fallbacks && a.bayExtremePoints == b.bayExtremePoints &&
         a.protocolCase == b.protocolCase;
}

/// The service's published epoch must answer exactly like a from-scratch
/// build over the same point set — the contract every test leans on.
void expectMatchesFreshBuild(const serve::RouteService& service) {
  const auto snap = service.snapshot();
  const core::HybridNetwork fresh(snap->scenario.points, service.options().ldel,
                                  service.options().router, nullptr);
  const auto pairs = somePairs(service);
  ASSERT_FALSE(pairs.empty());
  const auto served = service.routeBatch(pairs, 2);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(sameRoute(served[i], fresh.route(pairs[i].source, pairs[i].target)))
        << "pair " << i << " diverges at epoch " << snap->epoch;
  }
}

TEST(RouteService, ServesInitialEpoch) {
  serve::RouteService service(makeDeployment(71));
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.liveSnapshots(), 1);
  const auto snap = service.snapshot();
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->build, serve::EpochBuild::Full);
  expectMatchesFreshBuild(service);
}

TEST(RouteService, EmptyEpochIsReusedRepublish) {
  serve::RouteService service(makeDeployment(72));
  const auto before = service.snapshot();
  const auto stats = service.applyUpdates();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.build, serve::EpochBuild::Reused);
  const auto after = service.snapshot();
  EXPECT_EQ(after->epoch, 1u);
  // Same network object republished, not a rebuild of equal content.
  EXPECT_EQ(after->net.get(), before->net.get());
  EXPECT_EQ(service.reusedEpochs(), 1u);
}

TEST(RouteService, RejectsInvalidUpdates) {
  serve::RouteService service(makeDeployment(73));
  const auto before = service.snapshot();
  const int n = static_cast<int>(before->scenario.points.size());

  scenario::Update staleLeave;
  staleLeave.kind = scenario::UpdateKind::Leave;
  staleLeave.node = n + 100;
  scenario::Update badMove;
  badMove.kind = scenario::UpdateKind::Move;
  badMove.node = -1;
  scenario::Update badObstacle;
  badObstacle.kind = scenario::UpdateKind::ObstacleAdd;
  badObstacle.poly = {{0.0, 0.0}, {1.0, 1.0}};  // Degenerate: two vertices.
  scenario::Update staleObstacleRemove;
  staleObstacleRemove.kind = scenario::UpdateKind::ObstacleRemove;
  staleObstacleRemove.obstacle = 99;
  service.enqueue({staleLeave, badMove, badObstacle, staleObstacleRemove});

  const auto stats = service.applyUpdates();
  EXPECT_EQ(stats.applied, 0);
  EXPECT_EQ(stats.rejected, 4);
  EXPECT_EQ(stats.build, serve::EpochBuild::Reused);
  EXPECT_EQ(service.snapshot()->net.get(), before->net.get());
}

TEST(RouteService, ConnectivityFilterKeepsTheFloor) {
  // Removing node 4 passes the per-update floor (9 > kMinNodes nodes), and
  // so does moving it off the line; either cuts the line into two halves
  // of four, and keeping the larger half alone would publish 4 nodes. The
  // batch is rejected instead and the previous epoch kept.
  scenario::Update leave;
  leave.kind = scenario::UpdateKind::Leave;
  leave.node = 4;
  scenario::Update move;
  move.kind = scenario::UpdateKind::Move;
  move.node = 4;
  move.pos = {3.6, 5.0};
  for (const auto& update : {leave, move}) {
    serve::RouteService service(lineDeployment());
    const auto before = service.snapshot();
    service.enqueue(update);
    const auto stats = service.applyUpdates();
    EXPECT_EQ(stats.applied, 0);
    EXPECT_EQ(stats.rejected, 1);
    EXPECT_EQ(stats.evicted, 0);
    EXPECT_EQ(stats.build, serve::EpochBuild::Reused);
    const auto after = service.snapshot();
    ASSERT_EQ(after->scenario.points.size(), 9u);
    EXPECT_EQ(after->net.get(), before->net.get());
    const int last = static_cast<int>(serve::RouteService::kMinNodes) - 1;
    const std::vector<routing::RoutePair> floorPair{{0, last}};
    EXPECT_TRUE(service.routeBatch(floorPair).front().delivered);
  }
}

TEST(RouteService, ConnectivityFilterEvictsAStrandedNode) {
  // Moving the last node of the line far away strands it: the epoch's UDG
  // is disconnected, the filter evicts exactly that node, and the eight
  // left on the line are rebuilt.
  serve::RouteService service(lineDeployment());
  const auto before = service.snapshot();
  scenario::Update move;
  move.kind = scenario::UpdateKind::Move;
  move.node = 8;
  move.pos = {20.0, 0.0};
  service.enqueue(move);
  const auto stats = service.applyUpdates();
  EXPECT_EQ(stats.applied, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.evicted, 1);
  EXPECT_NE(stats.build, serve::EpochBuild::Reused);
  EXPECT_EQ(stats.nodes, serve::RouteService::kMinNodes);
  const auto after = service.snapshot();
  const auto& line = before->scenario.points;
  EXPECT_EQ(after->scenario.points, std::vector<geom::Vec2>(line.begin(), line.end() - 1));
  EXPECT_EQ(after->net->udg().numNodes(), serve::RouteService::kMinNodes);
  expectMatchesFreshBuild(service);
}

TEST(RouteService, ObstacleOutsideDeploymentReusesNetwork) {
  serve::RouteService service(makeDeployment(74));
  scenario::Update add;
  add.kind = scenario::UpdateKind::ObstacleAdd;
  add.poly = {{-5.0, -5.0}, {-4.0, -5.0}, {-4.0, -4.0}, {-5.0, -4.0}};
  service.enqueue(add);
  const auto stats = service.applyUpdates();
  EXPECT_EQ(stats.applied, 1);
  EXPECT_EQ(stats.evicted, 0);
  // The obstacle covers no node, so the topology — the only network build
  // input — is unchanged: the scenario records it, the network is reused.
  EXPECT_EQ(stats.build, serve::EpochBuild::Reused);
  EXPECT_EQ(service.snapshot()->scenario.obstacles.size(), 2u);
}

TEST(RouteService, TinyInteriorMoveAdoptsOverlaySlab) {
  serve::RouteService service(makeDeployment(75));
  const auto before = service.snapshot();
  const auto& pts = before->scenario.points;
  // Pick a node on no boundary ring (hole rings and the outer boundary
  // both feed the overlay plan, so only strictly interior churn can leave
  // the plan — and with it the slab — unchanged).
  std::vector<bool> onRing(pts.size(), false);
  for (const auto& ring : protocols::boundaryRings(*before->net)) {
    for (int v : ring) onRing[static_cast<std::size_t>(v)] = true;
  }
  int interior = -1;
  for (std::size_t i = 0; i < onRing.size(); ++i) {
    if (!onRing[i]) {
      interior = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(interior, 0);
  scenario::Update move;
  move.kind = scenario::UpdateKind::Move;
  move.node = interior;
  move.pos = {pts[static_cast<std::size_t>(interior)].x + 1e-7,
              pts[static_cast<std::size_t>(interior)].y};
  service.enqueue(move);

  const auto stats = service.applyUpdates();
  ASSERT_EQ(stats.applied, 1);
  // The point set changed, so the network was rebuilt — but the overlay
  // build inputs (hole rings, their positions) did not, so the slab was
  // adopted from the previous epoch instead of being rebuilt.
  EXPECT_EQ(stats.build, serve::EpochBuild::Incremental);
  const auto after = service.snapshot();
  EXPECT_NE(after->net.get(), before->net.get());
  EXPECT_EQ(after->net->router().overlayPtr().get(), before->net->router().overlayPtr().get());
  EXPECT_EQ(stats.changedRings, 0);
  expectMatchesFreshBuild(service);
}

TEST(RouteService, JoinRebuildsAndMatchesFreshBuild) {
  serve::RouteService service(makeDeployment(76));
  const auto before = service.snapshot();
  const geom::Vec2 anchor = before->scenario.points.front();
  scenario::Update join;
  join.kind = scenario::UpdateKind::Join;
  join.pos = {anchor.x + 0.11, anchor.y + 0.07};
  service.enqueue(join);
  const auto stats = service.applyUpdates();
  if (stats.applied == 1) {
    EXPECT_NE(stats.build, serve::EpochBuild::Reused);
    EXPECT_EQ(stats.nodes, before->scenario.points.size() + 1);
  } else {
    // The jittered spot collided with an existing node or an obstacle;
    // rejection must leave the epoch as a clean republish.
    EXPECT_EQ(stats.build, serve::EpochBuild::Reused);
  }
  expectMatchesFreshBuild(service);
}

TEST(RouteService, ObstacleAddEvictsCoveredNodes) {
  serve::RouteService service(makeDeployment(77));
  const auto before = service.snapshot();
  scenario::Update add;
  add.kind = scenario::UpdateKind::ObstacleAdd;
  add.poly = {{1.0, 1.0}, {3.0, 1.0}, {3.0, 3.0}, {1.0, 3.0}};
  service.enqueue(add);
  const auto stats = service.applyUpdates();
  ASSERT_EQ(stats.applied, 1);
  EXPECT_GT(stats.evicted, 0);
  EXPECT_EQ(stats.build, serve::EpochBuild::Full);
  const auto after = service.snapshot();
  EXPECT_LT(after->scenario.points.size(), before->scenario.points.size());
  const geom::Polygon poly(add.poly);
  for (const auto& p : after->scenario.points) {
    EXPECT_FALSE(poly.contains(p));
  }
  expectMatchesFreshBuild(service);
}

TEST(RouteService, SnapshotRetiresWhenLastReaderDrains) {
  serve::RouteService service(makeDeployment(78));
  auto pinned = service.snapshot();
  std::weak_ptr<const serve::Snapshot> watch = pinned;

  scenario::Update leave;
  leave.kind = scenario::UpdateKind::Leave;
  leave.node = 0;
  service.enqueue(leave);
  service.applyUpdates();

  // The reader still pins epoch 0 after the swap; the epoch retires the
  // moment the pin drops, with no action from the service.
  EXPECT_EQ(service.liveSnapshots(), 2);
  EXPECT_FALSE(watch.expired());
  pinned.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(service.liveSnapshots(), 1);
}

TEST(RouteService, FaultStreamIsDeterministic) {
  const auto sc = makeDeployment(79);
  serve::ServiceOptions opts;
  opts.updateFaults.seed = 99;
  opts.updateFaults.adHocDrop = 0.2;
  opts.updateFaults.adHocDuplicate = 0.2;
  opts.updateFaults.adHocDelay = 0.2;

  scenario::ChurnParams churn;
  churn.seed = 5;
  churn.epochs = 5;
  const auto trace = scenario::makeChurnTrace(sc, churn);

  struct Outcome {
    serve::StreamStats stream;
    std::vector<geom::Vec2> points;
    std::uint64_t epoch = 0;
  };
  const auto run = [&] {
    serve::RouteService service(sc, opts);
    for (const auto& batch : trace) {
      service.enqueue(batch);
      service.applyUpdates();
    }
    while (service.drainOnce()) {
    }
    return Outcome{service.streamStats(), service.snapshot()->scenario.points,
                   service.epoch()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_GT(a.stream.dropped, 0u);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.epoch, b.epoch);
}

TEST(RouteService, SharedLabelSlabAcrossReplicas) {
  const auto sc = makeDeployment(80);
  const core::HybridNetwork net(sc.points);
  routing::StatelessRouter built(net.ldel(), 1);
  // A second replica adopts the first one's slab: same storage, same
  // answers — the snapshot-ownership model for sharded label serving.
  routing::StatelessRouter replica(built.labelsPtr());
  EXPECT_EQ(replica.labelsPtr().get(), built.labelsPtr().get());
  const int n = static_cast<int>(sc.points.size());
  for (int i = 0; i + 1 < n && i < 20; i += 5) {
    const auto a = built.route(i, n - 1 - i);
    const auto b = replica.route(i, n - 1 - i);
    EXPECT_TRUE(sameRoute(a, b)) << "pair " << i;
  }
}

TEST(ChurnServing, ConcurrentReadersUnderChurn) {
  serve::RouteService service(makeDeployment(81));

  scenario::ChurnParams churn;
  churn.seed = 17;
  churn.epochs = 4;
  churn.updatesPerEpoch = 4;
  const auto trace = scenario::makeChurnTrace(service.snapshot()->scenario, churn);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&service, &stop] {
      // Node ids below kMinNodes always exist (batches that would cross
      // the floor are rejected), so these pairs stay valid whichever
      // epoch the service happens to serve them against.
      const std::vector<routing::RoutePair> fixed{{0, 7}, {1, 6}, {2, 5}};
      while (!stop.load(std::memory_order_relaxed)) {
        const auto viaService = service.routeBatch(fixed, 2);
        EXPECT_EQ(viaService.size(), fixed.size());
        // The pin-then-serve pattern: pairs derived from a pinned epoch
        // must be routed on that epoch's network, not the service's
        // current one (a swap in between may shrink the id space).
        const auto snap = service.snapshot();
        EXPECT_GE(snap->scenario.points.size(), serve::RouteService::kMinNodes);
        const int n = static_cast<int>(snap->scenario.points.size());
        const std::vector<routing::RoutePair> pinnedPairs{{0, n - 1}, {n / 2, n - 2}};
        const auto viaPin = snap->net->routeBatch(pinnedPairs, 1);
        EXPECT_EQ(viaPin.size(), pinnedPairs.size());
      }
    });
  }
  for (const auto& batch : trace) {
    service.enqueue(batch);
    service.applyUpdates();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(service.epoch(), static_cast<std::uint64_t>(churn.epochs));
  EXPECT_EQ(service.history().size(), static_cast<std::size_t>(churn.epochs));
  expectMatchesFreshBuild(service);
}

TEST(ChurnServing, OracleIsRegisteredAndPasses) {
  const auto* oracle = testkit::findOracle("churn_serving");
  ASSERT_NE(oracle, nullptr);
  testkit::CaseContext ctx(makeDeployment(82, 7.0), 3, 2);
  const auto verdict = oracle->check(ctx);
  EXPECT_TRUE(verdict.ok) << verdict.failure;
  EXPECT_FALSE(verdict.skipped);
}

}  // namespace
}  // namespace hybrid
