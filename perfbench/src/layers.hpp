#pragma once

// Per-layer measurements. Every function here times public calls of one
// layer from the outside (each call inside a trace::Span) and turns the
// samples into the per-layer metrics of BENCHMARK.json. The traced run of
// every workload reports the full per-layer list on that workload's own
// inputs: layers its timed loop exercises come from the loop itself, the
// rest from these probes.

#include <memory>
#include <vector>

#include "common.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/ring_pipeline.hpp"
#include "serve/route_service.hpp"

namespace perfbench {

/// Routing layer, single-threaded, one query at a time over `pairs`:
/// HybridRouter::route, HybridRouter::locate on both endpoints,
/// OverlayGraph::waypointsWithDistance and a plain ChewRouter, plus the
/// RouteResult counts, stretch against the UDG optimum and the overlay's
/// registry counters over the route calls. Every route is validated.
void probeRouting(const hybrid::core::HybridNetwork& net,
                  const std::vector<hybrid::routing::RoutePair>& pairs, Metrics& out,
                  Tally& tally);

/// One RouteService::applyUpdates epoch as the updater saw it. Times are
/// ms on the run's clock; `points` is kept for rebuilt epochs only.
struct EpochRecord {
  double dueMs = 0.0;    ///< When the oldest batch it consumed was due.
  double startMs = 0.0;  ///< applyUpdates() call.
  double endMs = 0.0;    ///< Return, i.e. the epoch is published.
  hybrid::serve::EpochStats stats;
  std::vector<hybrid::geom::Vec2> points;
};

/// Calls applyUpdates() and records it (updater thread only).
EpochRecord applyEpoch(hybrid::serve::RouteService& service, Clock::time_point origin,
                       double dueMs, std::uint64_t epochId);

/// One service's epochs, from the point set it was built on.
struct EpochChain {
  hybrid::serve::ServiceOptions options;
  std::vector<hybrid::geom::Vec2> initialPoints;
  std::vector<EpochRecord> epochs;
};

/// Serve and build layers from a run's epochs: swap and queue-wait
/// percentiles, build tiers, ring churn and rejections, then a stage-by-
/// stage rebuild of each chain's initial and rebuilt point sets (LDel²,
/// holes, abstraction, subdivision, router with the previous rebuild's
/// router as overlay donor) and what each swap spent outside them.
void serveLayerMetrics(const std::vector<EpochChain>& chains, Metrics& out);

/// Runs `epochs` churn batches back to back through `service` (no
/// readers), times 2000 snapshot() calls, and reports serveLayerMetrics
/// and pinMetrics. Every 4th epoch is checked against a fresh build.
void probeServe(hybrid::serve::RouteService& service, std::uint64_t seed, int epochs,
                Metrics& out, Tally& tally);

/// Pin latency percentile of RouteService::snapshot() samples (µs).
void pinMetrics(std::vector<double> pinUs, Metrics& out);

/// An epoch's routes must match a fresh HybridNetwork build on the same
/// points exactly (the serving correctness contract). Outside any timing.
bool matchesFreshBuild(const hybrid::serve::Snapshot& snap,
                       const hybrid::serve::ServiceOptions& options, std::uint64_t seed);

/// Inputs and fault-free reference of the lossy preprocessing: the oracle
/// network's hole rings (plus the outer boundary) and bay chains, and the
/// outputs of one fault-free run the lossy runs must reproduce exactly.
struct LossyInputs {
  const hybrid::graph::GeometricGraph* udg = nullptr;
  double radius = 1.0;
  hybrid::protocols::RingInputs rings;
  std::vector<std::vector<int>> chains;
  std::vector<std::pair<int, int>> ldelEdges;  ///< Sorted oracle LDel² edges.
  std::vector<char> isBoundary;                 ///< Fault-free run.
  std::vector<hybrid::protocols::RingResult> ringResults;  ///< Fault-free run.
};
LossyInputs lossyInputs(const hybrid::graph::GeometricGraph& udg,
                        const hybrid::core::HybridNetwork& oracle);

/// One lossy preprocessing pass: runLdelConstruction, RingPipeline and
/// DominatingSetProtocol under RetryPolicy on one Simulator with 5% drop on
/// both channels.
struct PassResult {
  double ms = 0.0;
  double ldelMs = 0.0, ringsMs = 0.0, dsMs = 0.0;
  int ldelRounds = 0, ringRounds = 0, dsRounds = 0;
  long messages = 0, dropped = 0, retransmissions = 0;
  int effectiveThreads = 0;
  bool ok = false;
};
constexpr double kPreprocessLoss = 0.05;
PassResult lossyPass(const LossyInputs& in, std::uint64_t faultSeed, int simThreads,
                     std::uint64_t passId);

/// protocols.*, sim.* and arq.* metrics over a set of passes.
void passMetrics(const std::vector<PassResult>& passes, Metrics& out);

}  // namespace perfbench
