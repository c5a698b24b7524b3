// Micro-tests for the false-sharing and granularity fixes behind the
// parallel hot paths: per-thread workspaces live on distinct cache lines,
// a sharded simulator run keeps its outbox slabs thread-private, and the
// work-stealing chunk plan never degenerates into empty or single-item
// chunks for reasonably sized batches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "delaunay/udg.hpp"
#include "graph/dijkstra_workspace.hpp"
#include "routing/overlay_graph.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace hybrid {
namespace {

static_assert(alignof(graph::DijkstraWorkspace) >= 64,
              "per-thread Dijkstra workspaces must be cache-line-aligned");
static_assert(sizeof(graph::DijkstraWorkspace) % 64 == 0,
              "adjacent Dijkstra workspaces must not share a cache line");
static_assert(alignof(routing::OverlayQueryWorkspace) >= 64,
              "per-thread overlay workspaces must be cache-line-aligned");
static_assert(sizeof(routing::OverlayQueryWorkspace) % 64 == 0,
              "adjacent overlay workspaces must not share a cache line");

TEST(FalseSharing, AdjacentWorkspacesAreAtLeastOneCacheLineApart) {
  const std::vector<graph::DijkstraWorkspace> dws(4);
  for (std::size_t i = 1; i < dws.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&dws[i - 1]);
    const auto b = reinterpret_cast<std::uintptr_t>(&dws[i]);
    EXPECT_GE(b - a, 64u);
    EXPECT_EQ(a % 64, 0u);
  }
  const std::vector<routing::OverlayQueryWorkspace> ows(4);
  for (std::size_t i = 1; i < ows.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&ows[i - 1]);
    const auto b = reinterpret_cast<std::uintptr_t>(&ows[i]);
    EXPECT_GE(b - a, 64u);
    EXPECT_EQ(a % 64, 0u);
  }
}

graph::GeometricGraph gridGraph(int side) {
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) pts.push_back({0.9 * x, 0.9 * y});
  }
  return delaunay::buildUnitDiskGraph(pts, 1.0);
}

class FloodProtocol : public sim::Protocol {
 public:
  void onStart(sim::Context& ctx) override {
    for (int nb : ctx.udgNeighbors()) {
      sim::Message m;
      m.type = 1;
      ctx.sendAdHoc(nb, std::move(m));
    }
  }
  void onMessage(sim::Context& ctx, const sim::Message& m) override {
    (void)ctx;
    (void)m;
  }
};

TEST(FalseSharing, ShardedRunKeepsOutboxSlabsThreadPrivate) {
  const auto g = gridGraph(8);
  sim::Simulator sim(g);
  sim.setThreads(4);
  sim.setAllowOversubscribe(true);
  FloodProtocol proto;
  sim.run(proto, 50);
  ASSERT_EQ(sim.effectiveThreads(), 4);
  // Every send of the run was staged into the stepping worker's private
  // pool.
  ASSERT_EQ(sim.shardCount(), 4u);
  for (std::size_t s = 0; s < sim.shardCount(); ++s) {
    EXPECT_GT(sim.shardPoolSlots(s), 0u) << "shard " << s;
  }
}

TEST(ChunkPlan, CoversRangeContiguouslyWithoutEmptyChunks) {
  for (const std::size_t n : {1u, 2u, 7u, 16u, 63u, 64u, 1000u, 4096u}) {
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      const util::ChunkPlan plan = util::planChunks(n, threads, 4);
      ASSERT_GE(plan.tasks, 1u);
      std::size_t covered = 0;
      for (unsigned t = 0; t < plan.tasks; ++t) {
        const std::size_t b = plan.begin(t);
        const std::size_t e = plan.end(t, n);
        ASSERT_EQ(b, covered) << "n=" << n << " threads=" << threads << " task " << t;
        ASSERT_LT(b, e) << "empty chunk: n=" << n << " threads=" << threads;
        covered = e;
      }
      ASSERT_EQ(covered, n) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ChunkPlan, NoSingleItemChunksForBatchesTwiceTheThreadCount) {
  for (const unsigned threads : {2u, 4u, 8u, 16u}) {
    for (std::size_t n = 2 * threads; n < 2 * threads + 40; ++n) {
      const util::ChunkPlan plan = util::planChunks(n, threads, 2);
      for (unsigned t = 0; t < plan.tasks; ++t) {
        ASSERT_GE(plan.end(t, n) - plan.begin(t), 2u)
            << "n=" << n << " threads=" << threads << " task " << t;
      }
    }
  }
}

TEST(ChunkPlan, AimsForRoughlyFourChunksPerThread) {
  const util::ChunkPlan plan = util::planChunks(100000, 8, 4);
  EXPECT_GE(plan.tasks, 8u * 3u);
  EXPECT_LE(plan.tasks, 8u * 4u);
}

TEST(ChunkPlan, MinPerChunkWinsOverChunkCount) {
  // 64 items at 8 threads with a 16-item floor: 4 chunks, not 32.
  const util::ChunkPlan plan = util::planChunks(64, 8, 16);
  EXPECT_EQ(plan.chunk, 16u);
  EXPECT_EQ(plan.tasks, 4u);
}

TEST(ThreadPoolParallelism, BoundedRunExecutesEveryTaskWithoutGrowingPool) {
  util::ThreadPool pool;
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  const std::function<void(unsigned)> fn = [&](unsigned t) {
    hits[t].fetch_add(1, std::memory_order_relaxed);
  };
  pool.run(64, 2, fn);
  for (unsigned t = 0; t < 64; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
  // Parallelism 2 means the caller plus at most one worker.
  EXPECT_LE(pool.workerCount(), 1u);
}

}  // namespace
}  // namespace hybrid
