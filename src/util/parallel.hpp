#pragma once

#include <algorithm>
#include <functional>
#include <thread>

#include "util/thread_pool.hpp"

namespace hybrid::util {

/// Number of worker threads to use: `requested` if positive, otherwise the
/// hardware concurrency (at least 1).
inline unsigned resolveThreads(int requested) {
  if (requested > 0) return static_cast<unsigned>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// How parallelTasks splits [0, n): `tasks` chunks of `chunk` items each,
/// except the last chunk, which absorbs the remainder (so it holds between
/// `chunk` and `2*chunk - 1` items and no chunk is ever empty).
struct ChunkPlan {
  std::size_t chunk = 0;
  unsigned tasks = 0;

  std::size_t begin(unsigned t) const { return static_cast<std::size_t>(t) * chunk; }
  std::size_t end(unsigned t, std::size_t n) const {
    return t + 1 == tasks ? n : begin(t) + chunk;
  }
};

/// Work-stealing-friendly chunking: aims for `perThread` chunks per thread
/// so the pool's dynamic task handout can rebalance uneven per-item costs,
/// while never cutting chunks below `minPerChunk` items (tiny chunks pay
/// more in handout traffic and boundary false sharing than they recover in
/// balance). Guarantees for n > 0: no chunk is empty, and every chunk has
/// at least min(n, minPerChunk) items — in particular, batches with
/// n >= 2 * threads never see a single-item chunk when minPerChunk >= 2.
inline ChunkPlan planChunks(std::size_t n, unsigned threads, std::size_t minPerChunk,
                            unsigned perThread = 4) {
  if (n == 0) return {0, 0};
  threads = std::max(1u, std::min(threads, ThreadPool::kMaxWorkers + 1));
  minPerChunk = std::max<std::size_t>(1, minPerChunk);
  perThread = std::max(1u, perThread);
  const std::size_t targetTasks =
      static_cast<std::size_t>(threads) * static_cast<std::size_t>(perThread);
  std::size_t chunk = std::max(minPerChunk, (n + targetTasks - 1) / targetTasks);
  // Floor division: the last chunk absorbs the remainder instead of
  // becoming a short straggler.
  const std::size_t tasks = std::max<std::size_t>(1, n / chunk);
  return {chunk, static_cast<unsigned>(tasks)};
}

/// Runs fn(begin, end, taskIndex) over the planChunks() split of [0, n),
/// with at most `threads` of them in flight at once (dynamic handout over
/// ~4x that many chunks). Chunk boundaries are deterministic — they depend
/// only on (n, threads, minPerChunk) — so writes keyed by item index are
/// bit-identical to a serial loop at any thread count.
template <typename F>
inline void parallelTasks(std::size_t n, unsigned threads, std::size_t minPerChunk,
                          F&& fn) {
  const ChunkPlan plan = planChunks(n, threads, minPerChunk);
  if (plan.tasks == 0) return;
  if (plan.tasks == 1 || threads <= 1) {
    fn(static_cast<std::size_t>(0), n, 0u);
    return;
  }
  const std::function<void(unsigned)> task = [&fn, n, plan](unsigned t) {
    fn(plan.begin(t), plan.end(t, n), t);
  };
  ThreadPool::global().run(plan.tasks, threads, task);
}

/// Runs fn(begin, end, chunkIndex) over contiguous chunks of [0, n) on
/// `threads` workers of the persistent process-wide ThreadPool. Chunking is
/// deterministic: chunk c covers [c*ceil(n/threads), ...), so merging
/// per-chunk results in chunk order reproduces the sequential order and
/// parallel builds stay bit-identical to serial ones at any thread count.
///
/// An explicit `threads` request is honored for any n (capped at n): small
/// inputs no longer fall back to a silent serial path, so pool bugs cannot
/// hide from tests. threads <= 1 (or n == 0) runs inline on the caller.
///
/// A throwing chunk does not take the process down: every chunk still
/// runs, and the first exception in chunk-index order is rethrown on the
/// calling thread (deterministic, whatever the threads' finishing order).
template <typename F>
inline void parallelChunks(std::size_t n, unsigned threads, F&& fn) {
  threads = std::max<unsigned>(
      1u, std::min<unsigned>(threads, n == 0 ? 1u
                                             : static_cast<unsigned>(std::min<std::size_t>(
                                                   n, ThreadPool::kMaxWorkers + 1))));
  if (threads == 1) {
    fn(static_cast<std::size_t>(0), n, 0u);
    return;
  }
  const std::size_t chunk = (n + threads - 1) / threads;
  const auto tasks = static_cast<unsigned>((n + chunk - 1) / chunk);
  const std::function<void(unsigned)> task = [&fn, n, chunk](unsigned t) {
    const std::size_t begin = std::min(n, static_cast<std::size_t>(t) * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    if (begin < end) fn(begin, end, t);
  };
  ThreadPool::global().run(tasks, task);
}

}  // namespace hybrid::util
