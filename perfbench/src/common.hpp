#pragma once

// Shared plumbing of the benchmark binary: clocks, order statistics, the
// metric list a run prints, the seeded inputs every workload draws from,
// and the thread knobs every workload fixes explicitly.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/hybrid_network.hpp"
#include "routing/router.hpp"
#include "scenario/generator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Samples of one timed loop, each stamped with when it started (seconds
/// into the measured span) and weighted by the work it did (1 per query).
struct Series {
  std::vector<double> atS;
  std::vector<double> value;
  std::vector<double> weight;
  void add(double at, double v, double w = 1.0) {
    atS.push_back(at);
    value.push_back(v);
    weight.push_back(w);
  }
  void append(const Series& o) {
    atS.insert(atS.end(), o.atS.begin(), o.atS.end());
    value.insert(value.end(), o.value.begin(), o.value.end());
    weight.insert(weight.end(), o.weight.begin(), o.weight.end());
  }
};

/// Best-of-windows view of a series: the span is cut into `windows` equal
/// slices by sample start time, and the best slice is reported. The host
/// this runs on shares its cores with other machines, and slowdowns from
/// them come and go in stretches of seconds; the best slice of a run is
/// the one they disturbed least, so it compares across runs.
struct WindowBest {
  double p50 = 0.0;   ///< Lowest median over the slices.
  double perS = 0.0;  ///< Highest weight per second over the slices.
};
WindowBest bestWindow(const Series& s, double spanS, int windows);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Ordered name -> (value, unit) list: one run's printed metrics.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
struct Metrics {
  std::vector<Metric> list;
  void set(const std::string& name, double value, const std::string& unit);
};

/// Operations a run attempted and how many failed a correctness check.
struct Tally {
  long attempted = 0;
  long failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Every thread knob of the public API, fixed per workload and printed with
/// each run so a later run on another box can be matched against it.
struct Threads {
  int clients = 0;      ///< Closed-loop query threads (route_serve clients, churn readers).
  int routeBatch = 1;   ///< `threads` argument of each routeBatch call.
  int updater = 0;      ///< Threads calling RouteService::applyUpdates.
  int ldel = 1;         ///< LDelOptions::threads of every network build.
  int simulator = 0;    ///< Simulator::setThreads of the lossy preprocessing.
};

/// The deployment the workloads run on: a few disjoint convex obstacles,
/// scaled so that roughly `n` nodes survive (city blocks with convex
/// footprints, the paper's motivating setting). Defined here rather than
/// borrowed from the bench/ helpers so the benchmark inputs only change when
/// the benchmark does.
hybrid::scenario::Scenario convexHolesScenario(std::size_t n, unsigned seed);

/// Options of every served network: default router (hulls, Delaunay
/// overlay) and the LDel build pinned to `threads` workers.
hybrid::delaunay::LDelOptions ldelOptions(double radius, int threads);

/// Uniformly random (s, t) pair with s != t over `n` nodes.
inline hybrid::routing::RoutePair randomPair(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
  const int s = pick(rng);
  int t = pick(rng);
  if (t == s) t = (t + 1) % static_cast<int>(n);
  return {s, t};
}

/// A delivered route that starts at s, ends at t and only steps over
/// edges of `ldel`.
bool validRoute(const hybrid::graph::GeometricGraph& ldel, const hybrid::routing::RouteResult& r,
                hybrid::routing::RoutePair p);

/// Deterministic 64-bit mix of a seed and a stream index.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
