// E22 — sustained serving under churn: serve::RouteService vs the direct
// router, as JSON.
//
// The service wraps HybridNetwork behind epoch snapshots: readers pin an
// immutable snapshot and route against it while a single updater applies a
// bounded batch of churn updates (node join/leave/move, obstacle edits,
// through the seeded fault-injected update stream) and publishes the next
// epoch with a pointer swap. This bench measures two things:
//
//  - the serving overhead of the snapshot indirection: service.routeBatch
//    vs routeBatch on the pinned network directly, same pairs, same thread
//    count (speedup_vs_direct ~ 1.0 is the machine-independent gauge the
//    CI bench gate checks);
//  - the LDel^2 build every Full epoch starts with: the build vs the
//    reference construction (testkit::referenceLocalizedDelaunay) on the
//    same points, one thread (speedup_vs_reference is gated in CI too);
//  - sustained throughput under live churn: reader threads keep routing
//    while the updater drains a churn trace epoch by epoch, reporting
//    q/s, epoch swap latency and the Reused/Incremental/Full rebuild mix
//    across churn rates (informational — wall-clock q/s is machine-bound).
//
// Before timing, every published epoch is cross-checked against a
// from-scratch HybridNetwork on the same topology: serial answers must be
// bit-identical (exit 3 on mismatch) — the same contract the churn_serving
// fuzz oracle enforces.
//
// Usage: e22_churn_serving [--smoke | --gate] [--metrics FILE]
// (bench::BenchArgs). --smoke is n = 250 with threads {1, 2}; --gate is
// n = 500 with threads {1, 2, 8}, whose overhead and LDel^2 ratios land in
// bench/baselines/e22.json. Both timed comparisons interleave their two
// sides repeat by repeat, so they keep their own best-of loops.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "scenario/churn.hpp"
#include "serve/route_service.hpp"
#include "testkit/oracles.hpp"

using namespace hybrid;

namespace {

serve::ServiceOptions serviceOptions(unsigned seed) {
  serve::ServiceOptions opts;
  opts.updateFaults.seed = seed;
  opts.updateFaults.adHocDrop = 0.1;
  opts.updateFaults.adHocDuplicate = 0.1;
  opts.updateFaults.adHocDelay = 0.1;
  return opts;
}

scenario::ChurnParams churnParams(unsigned seed, int epochs, int updatesPerEpoch) {
  scenario::ChurnParams churn;
  churn.seed = seed;
  churn.epochs = epochs;
  churn.updatesPerEpoch = updatesPerEpoch;
  return churn;
}

std::vector<routing::RoutePair> pairsFor(std::size_t n, std::size_t want) {
  std::vector<routing::RoutePair> pairs;
  if (n < 2) return pairs;
  std::mt19937 rng(static_cast<unsigned>(7919 + n));
  std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
  while (pairs.size() < want) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

/// Every epoch of a short churn run must serve answers bit-identical to a
/// from-scratch build — the acceptance check, never the timed region.
/// Returns false (after printing why) on the first divergence.
bool acceptanceCheck(const scenario::Scenario& sc, std::size_t n) {
  serve::RouteService service(sc, serviceOptions(1000 + static_cast<unsigned>(n)));
  const auto trace =
      scenario::makeChurnTrace(sc, churnParams(2000 + static_cast<unsigned>(n), 3, 8));
  for (const auto& batch : trace) {
    service.enqueue(batch);
    service.applyUpdates();
    const auto snap = service.snapshot();
    const core::HybridNetwork fresh(snap->scenario.points, service.options().ldel,
                                    service.options().router, nullptr);
    const auto pairs = pairsFor(snap->scenario.points.size(), 64);
    const auto served = service.routeBatch(pairs, 2);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto want = fresh.route(pairs[i].source, pairs[i].target);
      if (served[i].path != want.path || served[i].delivered != want.delivered) {
        std::fprintf(stderr, "e22_churn_serving: epoch %llu (%s build) diverges from a "
                             "fresh build at n=%zu pair=%zu (%d->%d)\n",
                     static_cast<unsigned long long>(snap->epoch),
                     serve::epochBuildName(snap->build), n, i, pairs[i].source,
                     pairs[i].target);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, "e22_churn_serving");
  const bool smoke = args.smoke;
  const bool gate = args.gate;

  const std::vector<std::size_t> sizes =
      smoke  ? std::vector<std::size_t>{250}
      : gate ? std::vector<std::size_t>{500}
             : std::vector<std::size_t>{500, 1000, 2000};
  const std::vector<int> threadCounts = smoke  ? std::vector<int>{1, 2}
                                        : gate ? std::vector<int>{1, 2, 8}
                                               : std::vector<int>{1, 2, 4, 8};
  // Updates per epoch: the churn-rate sweep of the sustained-serving run.
  const std::vector<int> churnRates = smoke  ? std::vector<int>{4}
                                      : gate ? std::vector<int>{8}
                                             : std::vector<int>{2, 8, 32};
  const int churnEpochs = smoke ? 3 : gate ? 4 : 6;
  const std::size_t overheadQueries = smoke ? 150 : gate ? 400 : 800;

  std::printf("{\n");
  std::printf("  \"experiment\": \"e22_churn_serving\",\n");
  std::printf("  \"workload\": \"epoch-snapshot serving loop over convex-holes deployments: "
              "reader threads route against pinned snapshots while the updater applies a "
              "seeded fault-injected churn trace and republishes epochs\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"configs\": [\n");
  bool firstCfg = true;
  for (const std::size_t n : sizes) {
    const auto sc = bench::convexHolesScenario(n, 42 + static_cast<unsigned>(n));
    if (!acceptanceCheck(sc, n)) return 3;

    if (!firstCfg) std::printf(",\n");
    firstCfg = false;
    std::printf("    {\"n\": %zu,\n", sc.points.size());

    // --- LDel^2 build, the layer every Full epoch starts with: the fast
    // kernels vs the reference construction on the same points, one thread,
    // interleaved best-of. The ratio is machine-independent and gated.
    {
      delaunay::LDelOptions ldelOpts;
      ldelOpts.radius = sc.radius;
      ldelOpts.reliableRadius = sc.radius;
      ldelOpts.threads = 1;
      double reference = 0.0;
      double fast = 0.0;
      for (int r = 0; r <= 2 * bench::kRepeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto want = testkit::referenceLocalizedDelaunay(sc.points, ldelOpts);
        const auto t1 = std::chrono::steady_clock::now();
        const auto got = delaunay::buildLocalizedDelaunay(sc.points, ldelOpts);
        const auto t2 = std::chrono::steady_clock::now();
        if (got.graph.edges() != want.graph.edges() || got.triangles != want.triangles) {
          std::fprintf(stderr, "e22_churn_serving: LDel^2 build differs from the reference "
                               "at n=%zu\n", n);
          return 3;
        }
        if (r == 0) continue;  // warm-up
        const double ref = bench::seconds(t0, t1);
        const double fst = bench::seconds(t1, t2);
        if (reference == 0.0 || ref < reference) reference = ref;
        if (fast == 0.0 || fst < fast) fast = fst;
      }
      const double speedup = bench::ratio(reference, fast);
      std::printf("     \"ldelBuild\": {\"referenceMs\": %.3f, \"buildMs\": %.3f, "
                  "\"speedupVsReference\": %.3f},\n",
                  1e3 * reference, 1e3 * fast, speedup);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        obs::Registry::global()
            .gauge("bench.e22.ldel.speedup_vs_reference.n" + std::to_string(n))
            .set(speedup);
      });
    }

    // --- Serving overhead: service.routeBatch (pin + route) vs routing on
    // the pinned network directly. The ratio is machine-independent; its
    // speedup_vs_direct gauges are what the CI bench gate checks.
    serve::RouteService service(sc, serviceOptions(10 + static_cast<unsigned>(n)));
    const auto snap = service.snapshot();
    const auto pairs = pairsFor(snap->scenario.points.size(), overheadQueries);
    volatile double sink = 0.0;
    std::printf("     \"servingOverhead\": [\n");
    bool firstT = true;
    for (const int t : threadCounts) {
      // Interleave the two sides repeat by repeat: both ride out the same
      // machine-load drift, so their ratio stays stable even when the
      // absolute q/s does not.
      const auto runDirect = [&] {
        const auto results = snap->net->routeBatch(pairs, t);
        sink = static_cast<double>(results.size());
      };
      const auto runService = [&] {
        const auto results = service.routeBatch(pairs, t);
        sink = static_cast<double>(results.size());
      };
      runDirect();
      runService();
      double direct = 0.0;
      double viaService = 0.0;
      for (int r = 0; r < 2 * bench::kRepeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        runDirect();
        auto t1 = std::chrono::steady_clock::now();
        runService();
        auto t2 = std::chrono::steady_clock::now();
        const double d = bench::seconds(t0, t1);
        const double s = bench::seconds(t1, t2);
        if (direct == 0.0 || d < direct) direct = d;
        if (viaService == 0.0 || s < viaService) viaService = s;
      }
      const double directQps = bench::ratio(static_cast<double>(pairs.size()), direct);
      const double serviceQps = bench::ratio(static_cast<double>(pairs.size()), viaService);
      const double speedup = bench::ratio(serviceQps, directQps);
      if (!firstT) std::printf(",\n");
      firstT = false;
      std::printf("       {\"threads\": %d, \"directQps\": %.0f, \"serviceQps\": %.0f, "
                  "\"speedupVsDirect\": %.3f}",
                  t, directQps, serviceQps, speedup);
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key = ".n" + std::to_string(n) + ".t" + std::to_string(t);
        auto& reg = obs::Registry::global();
        reg.gauge("bench.e22.serve.queries_per_s" + key).set(serviceQps);
        reg.gauge("bench.e22.direct.queries_per_s" + key).set(directQps);
        // ~1.0 at any thread count: the epoch pin is one mutex-guarded
        // shared_ptr copy per batch. Machine-independent, so gated.
        reg.gauge("bench.e22.serve.speedup_vs_direct" + key).set(speedup);
      });
    }
    std::printf("\n     ],\n");

    // --- Sustained serving under churn: readers route continuously while
    // the updater drains a churn trace. Wall-clock q/s is machine-bound —
    // informational gauges only (never gated).
    std::printf("     \"churn\": [\n");
    bool firstRate = true;
    for (const int rate : churnRates) {
      serve::RouteService churned(sc, serviceOptions(10 + static_cast<unsigned>(n)));
      const auto trace = scenario::makeChurnTrace(
          sc, churnParams(77 + static_cast<unsigned>(n), churnEpochs, rate));

      std::atomic<bool> stop{false};
      std::atomic<long> servedQueries{0};
      std::vector<std::thread> readers;
      for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&churned, &stop, &servedQueries] {
          while (!stop.load(std::memory_order_relaxed)) {
            const auto pin = churned.snapshot();
            const auto qs = pairsFor(pin->scenario.points.size(), 32);
            pin->net->routeBatch(qs, 1);
            servedQueries.fetch_add(static_cast<long>(qs.size()),
                                    std::memory_order_relaxed);
          }
        });
      }
      const auto c0 = std::chrono::steady_clock::now();
      for (const auto& batch : trace) {
        churned.enqueue(batch);
        churned.applyUpdates();
      }
      while (churned.drainOnce()) {
      }
      const auto c1 = std::chrono::steady_clock::now();
      stop.store(true, std::memory_order_relaxed);
      for (auto& r : readers) r.join();

      const double elapsed = bench::seconds(c0, c1);
      const double qps = bench::ratio(static_cast<double>(servedQueries.load()), elapsed);
      double swapMsSum = 0.0;
      double swapMsMax = 0.0;
      for (const auto& e : churned.history()) {
        swapMsSum += e.swapMs;
        if (e.swapMs > swapMsMax) swapMsMax = e.swapMs;
      }
      const double swapMsMean =
          churned.history().empty() ? 0.0 : swapMsSum / churned.history().size();
      const auto& stream = churned.streamStats();
      if (!firstRate) std::printf(",\n");
      firstRate = false;
      std::printf("       {\"updatesPerEpoch\": %d, \"epochs\": %zu, "
                  "\"readerQps\": %.0f, \"swapMsMean\": %.2f, \"swapMsMax\": %.2f,\n",
                  rate, churned.history().size(), qps, swapMsMean, swapMsMax);
      std::printf("        \"rebuilds\": {\"reused\": %llu, \"incremental\": %llu, "
                  "\"full\": %llu},\n",
                  static_cast<unsigned long long>(churned.reusedEpochs()),
                  static_cast<unsigned long long>(churned.incrementalRebuilds()),
                  static_cast<unsigned long long>(churned.fullRebuilds()));
      std::printf("        \"stream\": {\"offered\": %llu, \"delivered\": %llu, "
                  "\"dropped\": %llu, \"duplicated\": %llu, \"delayed\": %llu}}",
                  static_cast<unsigned long long>(stream.offered),
                  static_cast<unsigned long long>(stream.delivered),
                  static_cast<unsigned long long>(stream.dropped),
                  static_cast<unsigned long long>(stream.duplicated),
                  static_cast<unsigned long long>(stream.delayed));
      HYBRID_OBS_STMT(if (obs::enabled()) {
        const std::string key =
            ".n" + std::to_string(n) + ".u" + std::to_string(rate);
        auto& reg = obs::Registry::global();
        reg.gauge("serve.qps").set(qps);
        reg.gauge("bench.e22.churn.reader_qps" + key).set(qps);
        reg.gauge("bench.e22.churn.swap_ms_mean" + key).set(swapMsMean);
        reg.gauge("bench.e22.churn.rebuilds_full" + key)
            .set(static_cast<double>(churned.fullRebuilds()));
        reg.gauge("bench.e22.churn.rebuilds_incremental" + key)
            .set(static_cast<double>(churned.incrementalRebuilds()));
      });
    }
    std::printf("\n     ]}");
  }
  std::printf("\n  ]\n}\n");

  return bench::writeMetrics(args);
}
