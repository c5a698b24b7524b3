#include "workloads.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "delaunay/udg.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "scenario/churn.hpp"
#include "serve/route_service.hpp"
#include "trace.hpp"

namespace perfbench {

namespace hy = hybrid;

namespace {

// --- Fixed workload parameters (see perfbench/README.md). -----------------

/// Every workload runs on several deployments drawn from its seed, so a
/// run's medians average over deployments instead of hanging on one. Churn
/// spreads its batches over more of them (they are small).
constexpr int kDeployments = 8;
constexpr int kChurnDeployments = 16;
constexpr std::size_t kRouteNodes = 2000;       // ~2300 nodes survive the obstacles.
constexpr std::size_t kChurnNodes = 610;        // ~700 nodes.
constexpr std::size_t kPreprocessNodes = 1750;  // ~2000 nodes.
constexpr Threads kRouteThreads{3, 1, 0, 1, 2};
constexpr Threads kChurnThreads{2, 1, 1, 1, 2};
constexpr Threads kPreprocessThreads{0, 1, 0, 1, 2};
/// Open-loop churn: one batch of kChurnBatch updates is due every
/// kChurnIntervalMs (deployments take turns). At 60 ms the updater was busy
/// about half the time on a quiet host, but host slowdowns pushed it to 0.8
/// and queueing then dominated the visibility latency; 80 ms keeps it near
/// 0.35-0.4.
constexpr double kChurnIntervalMs = 80.0;
constexpr int kChurnBatch = 8;  ///< Updates per batch.
/// Each update moves a random node to a uniform spot within this distance
/// (per axis) of where it started. See stationaryChurn.
constexpr double kChurnMoveRadius = 0.05;
constexpr int kSampleEvery = 16;  ///< Churn epochs checked against a fresh build.
constexpr double kWarmupS = 0.5;
constexpr int kSetupsPerDeployment = 2;
/// A deployment plus its radio graph takes ~4 ms, so preprocess_lossy sets
/// each up more often to spread its set-up samples over more host states.
constexpr int kPreprocessSetupsPerDeployment = 8;
constexpr int kProbePairs = 300;
constexpr int kProbeEpochs = 8;
constexpr int kProbePasses = 3;
/// Tail percentile per workload: the highest with >= 10 samples beyond it
/// at the sample counts a run collects (route p99, churn p90, passes p75).
constexpr double kRouteTail = 0.99;
constexpr double kChurnTail = 0.90;
constexpr double kPreprocessTail = 0.75;
constexpr int kMinPasses = 40;  ///< 10 passes beyond p75.
/// Slices of a timed loop for its best-of-windows median and rate.
constexpr int kWindows = 4;

constexpr double kFailedLatencyMs = 1e9;  ///< A failed op misses every limit.

unsigned deploymentSeed(unsigned seed, int d) {
  return static_cast<unsigned>(mixSeed(seed, 20 + static_cast<std::uint64_t>(d)));
}

hy::serve::ServiceOptions serviceOptions(double radius, unsigned seed, int ldelThreads) {
  hy::serve::ServiceOptions opts;
  opts.ldel = ldelOptions(radius, ldelThreads);
  opts.updateFaults.seed = mixSeed(seed, 7);
  opts.updateFaults.adHocDrop = 0.1;
  opts.updateFaults.adHocDuplicate = 0.1;
  opts.updateFaults.adHocDelay = 0.1;
  return opts;
}

/// One served deployment: its scenario and the service built over it.
struct Deployment {
  unsigned seed = 0;
  hy::scenario::Scenario scenario;
  hy::serve::ServiceOptions options;
  std::unique_ptr<hy::serve::RouteService> service;
};

/// Builds every deployment's service kSetupsPerDeployment times (keeping
/// the last) and records each build's wall time in `setupS`.
std::vector<Deployment> buildDeployments(int count, std::size_t nodes, unsigned seed,
                                         int ldelThreads, std::vector<double>& setupS) {
  std::vector<Deployment> deps(static_cast<std::size_t>(count));
  for (int d = 0; d < count; ++d) {
    auto& dep = deps[static_cast<std::size_t>(d)];
    dep.seed = deploymentSeed(seed, d);
    dep.scenario = convexHolesScenario(nodes, dep.seed);
    dep.options = serviceOptions(dep.scenario.radius, dep.seed, ldelThreads);
    for (int k = 0; k < kSetupsPerDeployment; ++k) {
      dep.service.reset();
      const auto t0 = Clock::now();
      dep.service = std::make_unique<hy::serve::RouteService>(dep.scenario, dep.options);
      setupS.push_back(msSince(t0) / 1000.0);
    }
  }
  return deps;
}

std::vector<const hy::serve::RouteService*> services(const std::vector<Deployment>& deps) {
  std::vector<const hy::serve::RouteService*> out;
  for (const auto& d : deps) out.push_back(d.service.get());
  return out;
}

std::string threadInfo(const Threads& t) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "threads clients=%d route_batch=%d updater=%d ldel=%d simulator=%d nproc=%u",
                t.clients, t.routeBatch, t.updater, t.ldel, t.simulator,
                std::thread::hardware_concurrency());
  return buf;
}

std::string sizeInfo(unsigned seed, const hy::core::HybridNetwork& net) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "deployment seed=%u nodes=%zu ldel_edges=%zu holes=%zu sites=%zu", seed,
                net.ldel().numNodes(), net.ldel().edges().size(), net.holes().holes.size(),
                net.router().overlay().sites().size());
  return buf;
}

void setTracing(bool on) {
  hy::obs::setEnabled(on);
  trace::setEnabled(on);
}

/// Percent by which the traced loop's median latency exceeds the untraced one's.
void overheadMetric(double untracedP50, double tracedP50, Metrics& out) {
  out.set("trace.overhead_pct",
          untracedP50 > 0.0 ? 100.0 * (tracedP50 - untracedP50) / untracedP50 : 0.0, "%");
}

/// The end-to-end metrics every workload reports. The median and the rate
/// come from the run's best of `windows` windows (see bestWindow); the
/// tail, which needs >= 10 samples beyond it, from the whole run.
void endToEndMetrics(const std::vector<double>& setupS, const Series& ops, double spanS,
                     int windows, double tailQ, Metrics& out) {
  const WindowBest best = bestWindow(ops, spanS, windows);
  auto all = ops.value;
  out.set("setup_s", median(setupS), "s");
  out.set("peak_rss_mb", peakRssMb(), "MB");
  out.set("throughput_per_s", best.perS, "1/s");
  out.set("latency_ms_p50", best.p50, "ms");
  out.set("latency_ms_tail", quantile(all, tailQ), "ms");
}

/// What the query threads of one loop measured.
struct ClientSamples {
  Series latency;  ///< ms per query; weight 1.
  std::vector<double> pinUs;
  Tally tally;
  double seconds = 0.0;
};

/// Closed-loop query threads, one single-pair query at a time from each
/// thread's own seeded pair stream; consecutive queries of a thread take
/// the services in turn. Clients (`stop` null) send through
/// RouteService::routeBatch for `seconds`; readers (`stop` set) pin a
/// snapshot and route on it until `stop` is raised. Only queries issued
/// and finished inside the measured window (after the warm-up) count.
/// Traced clients also time an explicit snapshot() pin.
ClientSamples runClients(const std::vector<const hy::serve::RouteService*>& svcs,
                         const Threads& th, double seconds, std::uint64_t seed,
                         const std::atomic<bool>* stop) {
  const int clients = th.clients;
  const auto start = Clock::now();
  const auto warmEnd = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kWarmupS));
  const auto end = warmEnd + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  const bool readers = stop != nullptr;
  std::vector<std::shared_ptr<const hy::serve::Snapshot>> fixed;  // Clients: epochs never change.
  for (const auto* svc : svcs) fixed.push_back(svc->snapshot());
  std::vector<ClientSamples> perThread(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = perThread[static_cast<std::size_t>(c)];
      std::mt19937_64 rng(mixSeed(seed, 100 + static_cast<std::uint64_t>(c)));
      const std::uint64_t idBase = static_cast<std::uint64_t>(c) << 40;
      for (std::uint64_t q = 0;; ++q) {
        if (readers ? stop->load(std::memory_order_relaxed) : Clock::now() >= end) break;
        const std::size_t d = (q + static_cast<std::uint64_t>(c)) % svcs.size();
        const auto& service = *svcs[d];
        const std::uint64_t id = idBase + q;
        trace::Span span(readers ? "reader.query" : "client.query", id);
        const auto t0 = Clock::now();
        std::shared_ptr<const hy::serve::Snapshot> pin = fixed[d];
        if (readers || trace::enabled()) {
          trace::Span s("serve.snapshot", id);
          pin = service.snapshot();
        }
        const auto t1 = Clock::now();
        const auto pair = randomPair(rng, pin->scenario.points.size());
        std::vector<hy::routing::RouteResult> out;
        if (readers) {
          trace::Span s("router.routeBatch", id);
          out = pin->net->routeBatch(std::span(&pair, 1), th.routeBatch);
        } else {
          trace::Span s("serve.routeBatch", id);
          out = service.routeBatch(std::span(&pair, 1), th.routeBatch);
        }
        const auto t2 = Clock::now();
        if (t0 < warmEnd || (!readers && t2 > end)) continue;
        const bool ok = out.size() == 1 && validRoute(pin->net->ldel(), out[0], pair);
        mine.tally.add(ok);
        mine.latency.add(std::chrono::duration<double>(t0 - warmEnd).count(),
                         ok ? msSince(readers ? t0 : t1, t2) : kFailedLatencyMs);
        mine.pinUs.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  ClientSamples all;
  for (auto& s : perThread) {
    all.latency.append(s.latency);
    all.pinUs.insert(all.pinUs.end(), s.pinUs.begin(), s.pinUs.end());
    all.tally.merge(s.tally);
  }
  all.seconds = readers ? std::max(0.0, msSince(warmEnd) / 1000.0) : seconds;
  return all;
}

std::vector<hy::routing::RoutePair> probePairs(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(mixSeed(seed, 100));
  std::vector<hy::routing::RoutePair> pairs;
  for (int i = 0; i < kProbePairs; ++i) pairs.push_back(randomPair(rng, n));
  return pairs;
}

/// The protocols/sim layers on a network the workload already built.
void probeProtocols(const hy::core::HybridNetwork& net, std::uint64_t seed, int simThreads,
                    Metrics& out, Tally& tally) {
  const LossyInputs in = lossyInputs(net.udg(), net);
  std::vector<PassResult> passes;
  for (int k = 0; k < kProbePasses; ++k) {
    passes.push_back(lossyPass(in, mixSeed(seed, 5000 + static_cast<std::uint64_t>(k)),
                               simThreads, static_cast<std::uint64_t>(k)));
    tally.add(passes.back().ok);
  }
  passMetrics(passes, out);
}

}  // namespace

// --- route_serve ----------------------------------------------------------

RunResult runRouteServe(const RunConfig& cfg) {
  RunResult res;
  const Threads th = kRouteThreads;
  std::vector<double> setupS;
  auto deps = buildDeployments(kDeployments, kRouteNodes, cfg.seed, th.ldel, setupS);
  res.info.push_back(threadInfo(th));
  for (const auto& d : deps) res.info.push_back(sizeInfo(d.seed, *d.service->snapshot()->net));

  if (!cfg.trace) {
    auto loop = runClients(services(deps), th, cfg.seconds, cfg.seed, nullptr);
    endToEndMetrics(setupS, loop.latency, loop.seconds, kWindows, kRouteTail, res.metrics);
    res.tally = loop.tally;
    return res;
  }

  auto base = runClients(services(deps), th, cfg.seconds / 2, cfg.seed, nullptr);
  setTracing(true);
  auto traced = runClients(services(deps), th, cfg.seconds, cfg.seed, nullptr);
  res.tally.merge(base.tally);
  res.tally.merge(traced.tally);
  overheadMetric(median(base.latency.value), median(traced.latency.value), res.metrics);
  pinMetrics(std::move(traced.pinUs), res.metrics);
  // Layer probes on the first deployment.
  auto& first = deps.front();
  const auto snap0 = first.service->snapshot();
  probeRouting(*snap0->net, probePairs(first.seed, snap0->scenario.points.size()), res.metrics,
               res.tally);
  probeServe(*first.service, mixSeed(first.seed, 9), kProbeEpochs, res.metrics, res.tally);
  probeProtocols(*snap0->net, first.seed, th.simulator, res.metrics, res.tally);
  return res;
}

// --- churn_serve ----------------------------------------------------------

namespace {

/// Churn that keeps a deployment statistically unchanged however long it
/// runs: every update moves a random node to a spot near its starting
/// position. scenario::makeChurnTrace's mix (joins near random anchors,
/// random leaves, random-walk moves, obstacle edits) wears the jittered
/// grid of a deployment into a random layout: in a 20 s run its hole and
/// overlay-site counts doubled and reader throughput fell by half, so the
/// numbers depended on run length. Moves only, so node ids stay stable
/// under the update stream's drops, duplicates and delays.
std::vector<std::vector<hy::scenario::Update>> stationaryChurn(const hy::scenario::Scenario& sc,
                                                               std::uint64_t seed,
                                                               int batches) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> step(-kChurnMoveRadius, kChurnMoveRadius);
  std::vector<std::vector<hy::scenario::Update>> trace(static_cast<std::size_t>(batches));
  for (auto& batch : trace) {
    for (int i = 0; i < kChurnBatch; ++i) {
      hy::scenario::Update u;
      u.kind = hy::scenario::UpdateKind::Move;
      u.node = static_cast<int>(rng() % sc.points.size());
      const auto home = sc.points[static_cast<std::size_t>(u.node)];
      u.pos = {home.x + step(rng), home.y + step(rng)};
      batch.push_back(u);
    }
  }
  return trace;
}

struct ChurnLoop {
  ClientSamples readers;
  Series visible;  ///< Due -> publication (ms) per measured batch, stamped by due time.
  std::vector<EpochChain> chains;  ///< Per deployment.
  /// Epochs to check against a fresh build: (deployment, snapshot).
  std::vector<std::pair<int, std::shared_ptr<const hy::serve::Snapshot>>> sampled;
  double updaterBusy = 0.0;  ///< Share of the run the updater spent in applyUpdates.
};

/// Readers route against pinned snapshots while this thread plays the
/// open-loop updater: global batch k is due at k * interval and goes to
/// deployment k mod K; whatever is due is enqueued, and the deployment
/// with the oldest due batch is served next by one applyUpdates().
ChurnLoop runChurn(std::vector<Deployment>& deps,
                   const std::vector<std::vector<std::vector<hy::scenario::Update>>>& batches,
                   const Threads& th, double seconds, std::uint64_t seed) {
  ChurnLoop loop;
  for (const auto& d : deps) {
    loop.chains.push_back({d.options, d.service->snapshot()->scenario.points, {}});
  }
  std::atomic<bool> stop{false};
  ClientSamples readerOut;
  std::thread readers(
      [&] { readerOut = runClients(services(deps), th, seconds, seed, &stop); });

  const auto origin = Clock::now();
  const double warmMs = kWarmupS * 1000.0;
  const double endMs = warmMs + seconds * 1000.0;
  const auto dueOf = [](std::size_t k) { return static_cast<double>(k) * kChurnIntervalMs; };
  std::vector<std::vector<double>> pending(deps.size());
  double busyMs = 0.0;
  long applied = 0;
  for (std::size_t next = 0; msSince(origin) < endMs;) {
    const double now = msSince(origin);
    for (; dueOf(next) <= now; ++next) {
      const std::size_t d = next % deps.size();
      const std::size_t j = next / deps.size();
      if (j >= batches[d].size()) continue;
      pending[d].push_back(dueOf(next));
      deps[d].service->enqueue(batches[d][j]);
    }
    std::size_t pick = deps.size();
    for (std::size_t d = 0; d < deps.size(); ++d) {
      if (!pending[d].empty() && (pick == deps.size() || pending[d][0] < pending[pick][0])) {
        pick = d;
      }
    }
    if (pick == deps.size()) {
      std::this_thread::sleep_until(origin + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double, std::milli>(
                                                     dueOf(next))));
      continue;
    }
    auto& service = *deps[pick].service;
    auto rec = applyEpoch(service, origin, pending[pick][0],
                          (static_cast<std::uint64_t>(pick) << 32) | (service.epoch() + 1));
    for (const double due : pending[pick]) {
      if (due >= warmMs) loop.visible.add((due - warmMs) / 1000.0, rec.endMs - due);
    }
    pending[pick].clear();
    busyMs += rec.endMs - rec.startMs;
    loop.chains[pick].epochs.push_back(std::move(rec));
    if (++applied % kSampleEvery == 0) {
      loop.sampled.emplace_back(static_cast<int>(pick), service.snapshot());
    }
  }
  loop.updaterBusy = busyMs / msSince(origin);
  stop.store(true, std::memory_order_relaxed);
  readers.join();
  loop.readers = std::move(readerOut);
  for (std::size_t d = 0; d < deps.size(); ++d) {
    loop.sampled.emplace_back(static_cast<int>(d), deps[d].service->snapshot());
  }
  return loop;
}

}  // namespace

RunResult runChurnServe(const RunConfig& cfg) {
  RunResult res;
  const Threads th = kChurnThreads;
  std::vector<double> setupS;
  auto deps = buildDeployments(kChurnDeployments, kChurnNodes, cfg.seed, th.ldel, setupS);
  const double totalBatches = (kWarmupS + cfg.seconds) * 1000.0 / kChurnIntervalMs;
  std::vector<std::vector<std::vector<hy::scenario::Update>>> batches;
  for (const auto& d : deps) {
    batches.push_back(stationaryChurn(d.scenario, mixSeed(d.seed, 3),
                                      static_cast<int>(totalBatches / kChurnDeployments) + 2));
  }
  res.info.push_back(threadInfo(th));
  for (const auto& d : deps) res.info.push_back(sizeInfo(d.seed, *d.service->snapshot()->net));

  const auto check = [&](const ChurnLoop& loop) {
    res.tally.merge(loop.readers.tally);
    for (std::size_t b = 0; b < loop.visible.value.size(); ++b) res.tally.add(true);
    for (const auto& [d, snap] : loop.sampled) {
      const auto& dep = deps[static_cast<std::size_t>(d)];
      res.tally.add(matchesFreshBuild(*snap, dep.options, mixSeed(dep.seed, 11 + snap->epoch)));
    }
    char buf[128];
    long tiers[3] = {};
    for (const auto& chain : loop.chains) {
      for (const auto& e : chain.epochs) ++tiers[static_cast<int>(e.stats.build)];
    }
    std::snprintf(buf, sizeof buf,
                  "churn interval_ms=%.1f updates_per_batch=%d updater_busy=%.3f "
                  "epochs full=%ld incremental=%ld reused=%ld",
                  kChurnIntervalMs, kChurnBatch, loop.updaterBusy, tiers[2], tiers[1], tiers[0]);
    res.info.push_back(buf);
  };

  if (!cfg.trace) {
    auto loop = runChurn(deps, batches, th, cfg.seconds, cfg.seed);
    // Latency is update visibility; the rate is the readers' queries.
    endToEndMetrics(setupS, loop.visible, cfg.seconds, kWindows, kChurnTail, res.metrics);
    res.metrics.set("throughput_per_s",
                    bestWindow(loop.readers.latency, loop.readers.seconds, kWindows).perS, "1/s");
    check(loop);
    return res;
  }

  auto base = runChurn(deps, batches, th, cfg.seconds / 2, cfg.seed);
  check(base);
  for (auto& d : deps) d.service = std::make_unique<hy::serve::RouteService>(d.scenario, d.options);
  const auto snap0 = deps.front().service->snapshot();
  setTracing(true);
  auto traced = runChurn(deps, batches, th, cfg.seconds, cfg.seed);
  check(traced);
  overheadMetric(median(base.visible.value), median(traced.visible.value), res.metrics);
  pinMetrics(std::move(traced.readers.pinUs), res.metrics);
  serveLayerMetrics(traced.chains, res.metrics);
  const auto last = deps.front().service->snapshot();
  probeRouting(*last->net, probePairs(deps.front().seed, last->scenario.points.size()),
               res.metrics, res.tally);
  probeProtocols(*snap0->net, deps.front().seed, th.simulator, res.metrics, res.tally);
  return res;
}

// --- preprocess_lossy -----------------------------------------------------

namespace {

/// Lossy preprocessing passes, taking the deployments in turn, until
/// `seconds` have passed and at least `minPasses` ran.
struct PassLoop {
  std::vector<PassResult> passes;
  Series ms;  ///< Pass time, weighted by the pass's simulator messages.
  double seconds = 0.0;
};

PassLoop runPasses(const std::vector<LossyInputs>& ins, std::uint64_t seed, int simThreads,
                   double seconds, int minPasses, Tally& tally) {
  PassLoop loop;
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; msSince(t0) < seconds * 1000.0 ||
                            static_cast<int>(loop.passes.size()) < minPasses;
       ++k) {
    const double at = msSince(t0) / 1000.0;
    const auto& p = loop.passes.emplace_back(
        lossyPass(ins[k % ins.size()], mixSeed(seed, 1000 + k), simThreads, k));
    tally.add(p.ok);
    loop.ms.add(at, p.ok ? p.ms : kFailedLatencyMs, static_cast<double>(p.messages));
  }
  loop.seconds = msSince(t0) / 1000.0;
  return loop;
}

}  // namespace

RunResult runPreprocessLossy(const RunConfig& cfg) {
  RunResult res;
  const Threads th = kPreprocessThreads;
  // Set-up: each deployment's node placement and radio graph, built
  // kPreprocessSetupsPerDeployment times.
  std::vector<double> setupS;
  std::vector<hy::scenario::Scenario> scenarios(kDeployments);
  std::vector<hy::graph::GeometricGraph> udgs(kDeployments);  // Never resized: inputs point in.
  for (int d = 0; d < kDeployments; ++d) {
    for (int k = 0; k < kPreprocessSetupsPerDeployment; ++k) {
      const auto t0 = Clock::now();
      scenarios[d] = convexHolesScenario(kPreprocessNodes, deploymentSeed(cfg.seed, d));
      udgs[d] = hy::delaunay::buildUnitDiskGraph(scenarios[d].points, scenarios[d].radius);
      setupS.push_back(msSince(t0) / 1000.0);
    }
  }
  // Reference computations, excluded from set-up: the oracle networks whose
  // rings and bay chains are the protocol inputs, and one fault-free run each.
  std::vector<std::unique_ptr<hy::core::HybridNetwork>> oracles;
  std::vector<LossyInputs> ins;
  res.info.push_back(threadInfo(th));
  for (int d = 0; d < kDeployments; ++d) {
    const auto& sc = scenarios[d];
    oracles.push_back(std::make_unique<hy::core::HybridNetwork>(
        sc.points, ldelOptions(sc.radius, th.ldel)));
    ins.push_back(lossyInputs(udgs[d], *oracles.back()));
    res.info.push_back(sizeInfo(deploymentSeed(cfg.seed, d), *oracles.back()));
  }
  res.tally.add(lossyPass(ins[0], mixSeed(cfg.seed, 999), th.simulator, 0).ok);  // Warm-up.

  char buf[96];
  if (!cfg.trace) {
    const auto loop = runPasses(ins, cfg.seed, th.simulator, cfg.seconds, kMinPasses, res.tally);
    endToEndMetrics(setupS, loop.ms, loop.seconds, kWindows, kPreprocessTail, res.metrics);
    std::snprintf(buf, sizeof buf, "preprocess loss=%.2f passes=%zu", kPreprocessLoss,
                  loop.passes.size());
    res.info.push_back(buf);
    return res;
  }

  const auto base =
      runPasses(ins, cfg.seed, th.simulator, cfg.seconds / 2, kMinPasses / 2, res.tally);
  setTracing(true);
  const auto traced = runPasses(ins, cfg.seed, th.simulator, cfg.seconds, kMinPasses, res.tally);
  overheadMetric(median(base.ms.value), median(traced.ms.value), res.metrics);
  passMetrics(traced.passes, res.metrics);
  // Routing and serve probes on the first deployment.
  const unsigned seed0 = deploymentSeed(cfg.seed, 0);
  probeRouting(*oracles[0], probePairs(seed0, scenarios[0].points.size()), res.metrics,
               res.tally);
  hy::serve::RouteService service(scenarios[0],
                                  serviceOptions(scenarios[0].radius, seed0, th.ldel));
  probeServe(service, mixSeed(seed0, 9), kProbeEpochs, res.metrics, res.tally);
  return res;
}

}  // namespace perfbench
