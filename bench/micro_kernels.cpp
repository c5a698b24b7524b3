// Micro-benchmarks of the computational kernels (google-benchmark):
// geometric predicates (filtered fast path vs exact fallback), convex hull,
// Delaunay triangulation, UDG/LDel^2 construction, hole detection,
// shortest paths, visibility tests and end-to-end route queries.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <utility>

#include "core/hybrid_network.hpp"
#include "delaunay/ldel.hpp"
#include "delaunay/triangulation.hpp"
#include "delaunay/udg.hpp"
#include "geom/polygon.hpp"
#include "geom/predicates.hpp"
#include "graph/shortest_path.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "sim/message_pool.hpp"

namespace {

using namespace hybrid;

std::vector<geom::Vec2> randomPoints(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(0.0, 100.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = {d(rng), d(rng)};
  return pts;
}

void BM_OrientFastPath(benchmark::State& state) {
  const auto pts = randomPoints(3000, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = pts[i % pts.size()];
    const auto& b = pts[(i + 1) % pts.size()];
    const auto& c = pts[(i + 2) % pts.size()];
    benchmark::DoNotOptimize(geom::orient(a, b, c));
    ++i;
  }
}
BENCHMARK(BM_OrientFastPath);

void BM_OrientExactFallback(benchmark::State& state) {
  // Nearly collinear triples force the expansion-arithmetic fallback.
  const geom::Vec2 a{0.5, 0.5};
  const geom::Vec2 b{12.0, 12.0};
  const geom::Vec2 c{24.0, std::nextafter(24.0, 25.0)};
  for (auto _ : state) benchmark::DoNotOptimize(geom::orient(a, b, c));
}
BENCHMARK(BM_OrientExactFallback);

void BM_InCircle(benchmark::State& state) {
  const auto pts = randomPoints(3000, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::inCircle(pts[i % pts.size()], pts[(i + 1) % pts.size()],
                                            pts[(i + 2) % pts.size()],
                                            pts[(i + 3) % pts.size()]));
    ++i;
  }
}
BENCHMARK(BM_InCircle);

void BM_ConvexHull(benchmark::State& state) {
  const auto pts = randomPoints(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) benchmark::DoNotOptimize(geom::convexHull(pts));
}
BENCHMARK(BM_ConvexHull)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Delaunay(benchmark::State& state) {
  const auto pts = randomPoints(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    delaunay::DelaunayTriangulation dt(pts);
    benchmark::DoNotOptimize(dt.triangles().size());
  }
}
BENCHMARK(BM_Delaunay)->Arg(200)->Arg(1000)->Arg(5000);

void BM_UnitDiskGraph(benchmark::State& state) {
  auto params = scenario::paramsForNodeCount(static_cast<std::size_t>(state.range(0)), 5);
  const auto sc = scenario::makeScenario(params);
  for (auto _ : state) {
    auto g = delaunay::buildUnitDiskGraph(sc.points, 1.0);
    benchmark::DoNotOptimize(g.numEdges());
  }
}
BENCHMARK(BM_UnitDiskGraph)->Arg(1000)->Arg(4000);

void BM_LocalizedDelaunay(benchmark::State& state) {
  auto params = scenario::paramsForNodeCount(static_cast<std::size_t>(state.range(0)), 6);
  const auto sc = scenario::makeScenario(params);
  for (auto _ : state) {
    auto ldel = delaunay::buildLocalizedDelaunay(sc.points);
    benchmark::DoNotOptimize(ldel.graph.numEdges());
  }
}
BENCHMARK(BM_LocalizedDelaunay)->Arg(500)->Arg(2000);

void BM_HoleDetection(benchmark::State& state) {
  scenario::ScenarioParams p;
  p.width = p.height = 22.0;
  p.obstacles.push_back(scenario::regularPolygonObstacle({11.0, 11.0}, 3.5, 6));
  const auto sc = scenario::makeScenario(p);
  const auto ldel = delaunay::buildLocalizedDelaunay(sc.points);
  for (auto _ : state) {
    auto holes = holes::detectHoles(ldel.graph);
    benchmark::DoNotOptimize(holes.holes.size());
  }
}
BENCHMARK(BM_HoleDetection);

void BM_Dijkstra(benchmark::State& state) {
  auto params = scenario::paramsForNodeCount(4000, 7);
  const auto sc = scenario::makeScenario(params);
  const auto udg = delaunay::buildUnitDiskGraph(sc.points, 1.0);
  std::mt19937 rng(1);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(udg.numNodes()) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::shortestPathLength(udg, pick(rng), pick(rng)));
  }
}
BENCHMARK(BM_Dijkstra);

void BM_HybridRouteQuery(benchmark::State& state) {
  scenario::ScenarioParams p;
  p.width = p.height = 24.0;
  p.obstacles.push_back(scenario::regularPolygonObstacle({9.0, 9.0}, 3.0, 6));
  p.obstacles.push_back(scenario::rectangleObstacle({14.0, 14.0}, {19.0, 18.0}));
  const auto sc = scenario::makeScenario(p);
  core::HybridNetwork net(sc.points);
  std::mt19937 rng(2);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(net.ldel().numNodes()) - 1);
  for (auto _ : state) {
    const auto r = net.route(pick(rng), pick(rng));
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_HybridRouteQuery);

void BM_NetworkConstruction(benchmark::State& state) {
  auto sc = hybrid::scenario::makeScenario(
      scenario::paramsForNodeCount(static_cast<std::size_t>(state.range(0)), 8));
  for (auto _ : state) {
    core::HybridNetwork net(sc.points);
    benchmark::DoNotOptimize(net.holes().holes.size());
  }
}
BENCHMARK(BM_NetworkConstruction)->Arg(1000)->Arg(3000);

// ---------------------------------------------------------------------------
// Simulator hot-path kernels: delivery ordering and message allocation.
// ---------------------------------------------------------------------------

// Synthetic round of m messages among n nodes with the distribution the
// simulator sees (every node talks to a handful of others).
std::vector<std::pair<int, int>> randomTraffic(std::size_t m, int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::vector<std::pair<int, int>> fromTo(m);
  for (auto& [from, to] : fromTo) {
    from = node(rng);
    to = node(rng);
  }
  return fromTo;
}

// Pre-PR ordering: comparison stable_sort into (to, from, send-index),
// O(m log m) plus the sort's internal buffer.
void BM_DeliveryOrderStableSort(benchmark::State& state) {
  const int n = 10000;
  const auto traffic = randomTraffic(static_cast<std::size_t>(state.range(0)), n, 7);
  std::vector<std::uint32_t> order(traffic.size());
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       if (traffic[a].second != traffic[b].second) {
                         return traffic[a].second < traffic[b].second;
                       }
                       return traffic[a].first < traffic[b].first;
                     });
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeliveryOrderStableSort)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Two stable counting passes (by sender, then by recipient), O(m + n) with
// reused scratch: the whole-inbox sort serial simulator runs used before
// every run moved onto destination-sharded delivery.
void BM_DeliveryOrderCountingSort(benchmark::State& state) {
  const int n = 10000;
  const auto traffic = randomTraffic(static_cast<std::size_t>(state.range(0)), n, 7);
  std::vector<std::uint32_t> order(traffic.size());
  std::vector<std::uint32_t> tmp(traffic.size());
  std::vector<std::uint32_t> counts;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    counts.assign(static_cast<std::size_t>(n), 0);
    for (std::uint32_t i : order) ++counts[static_cast<std::size_t>(traffic[i].first)];
    std::uint32_t running = 0;
    for (auto& c : counts) {
      const std::uint32_t k = c;
      c = running;
      running += k;
    }
    for (std::uint32_t i : order) tmp[counts[static_cast<std::size_t>(traffic[i].first)]++] = i;
    counts.assign(static_cast<std::size_t>(n), 0);
    for (std::uint32_t i : tmp) ++counts[static_cast<std::size_t>(traffic[i].second)];
    running = 0;
    for (auto& c : counts) {
      const std::uint32_t k = c;
      c = running;
      running += k;
    }
    for (std::uint32_t i : tmp) order[counts[static_cast<std::size_t>(traffic[i].second)]++] = i;
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeliveryOrderCountingSort)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Pre-PR message lifecycle: a fresh heap-backed message per send.
struct FreshMessage {
  int from = -1, to = -1, type = 0;
  std::vector<std::int64_t> ints;
  std::vector<double> reals;
  std::vector<int> ids;
};

void BM_MessageFreshHeap(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<FreshMessage> round;
    for (int i = 0; i < 256; ++i) {
      FreshMessage m;
      m.from = i;
      m.to = i + 1;
      m.ints = {1, 2, 3};
      m.reals = {0.5};
      m.ids = {i};
      round.push_back(std::move(m));
    }
    benchmark::DoNotOptimize(round.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MessageFreshHeap);

// This PR's lifecycle: pooled slots with small-buffer payloads; in steady
// state acquire/fill/release never touches the heap.
void BM_MessagePooledRecycled(benchmark::State& state) {
  sim::MessagePool pool;
  std::vector<sim::MessagePool::Handle> round;
  round.reserve(256);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      const auto h = pool.acquire();
      sim::Message& m = pool.get(h);
      m.from = i;
      m.to = i + 1;
      m.ints = {1, 2, 3};
      m.reals = {0.5};
      m.ids = {i};
      round.push_back(h);
    }
    for (const auto h : round) pool.release(h);
    round.clear();
    benchmark::DoNotOptimize(pool.slotCount());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MessagePooledRecycled);

}  // namespace

BENCHMARK_MAIN();
