#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testkit/corpus.hpp"
#include "testkit/generators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/shrink.hpp"

namespace hybrid::testkit {

struct FuzzOptions {
  std::uint64_t seed = 1;  ///< Master seed; trial t runs on deriveSeed(seed, t).
  int trials = 100;
  /// Thread count the oracles' parallel paths run at. Does NOT parallelize
  /// trials themselves: the trial loop is serial so the summary is
  /// reproducible line for line — and because the parallel paths under
  /// test are thread-count-invariant, the summary is too.
  int threads = 2;
  /// Directory failing cases are shrunk into ("" disables recording).
  std::string corpusDir;
  /// Deliberate defect to plant (fuzz_router --inject-bug); proves the
  /// find -> shrink -> record pipeline end to end.
  InjectedBug bug = InjectedBug::None;
  /// Serving engine the batch-serving oracles run against
  /// (fuzz_router --router); stateless swaps in the per-node label
  /// forwarder beyond what stateless_parity always cross-checks.
  RouterKind routerKind = RouterKind::Centralized;
  /// Per-hole abstraction the router-building oracles run against
  /// (fuzz_router --abstraction); bbox runs the whole registry on the
  /// bounding-box overlay beyond what bbox_parity always forces.
  routing::AbstractionMode abstractionMode = routing::AbstractionMode::Hulls;
  ShrinkOptions shrink;
  bool verbose = false;  ///< Per-trial progress lines on stdout.
};

struct FuzzFailure {
  int trial = 0;
  std::string generator;
  std::uint64_t caseSeed = 0;
  std::string oracle;
  std::string message;
  std::size_t originalNodes = 0;
  std::size_t shrunkNodes = 0;
  std::string corpusPath;  ///< Empty when recording was disabled or failed.
};

/// Deterministic run report: identical runs (same options, any --threads)
/// print identical summaries.
struct FuzzSummary {
  int trials = 0;
  /// Cases per generator, in registry order.
  std::vector<std::pair<std::string, int>> perGenerator;
  struct OracleStats {
    std::string name;
    int runs = 0;
    int passes = 0;
    int skips = 0;
    int failures = 0;
  };
  /// Stats per oracle, in registry order.
  std::vector<OracleStats> perOracle;
  std::vector<FuzzFailure> failures;

  bool allPassed() const { return failures.empty(); }
  /// Multi-line human/diff-friendly text (what fuzz_router prints).
  std::string report() const;
};

FuzzSummary runFuzz(const FuzzOptions& opts);

/// Replays a recorded case through every oracle (no bug injection: the
/// corpus pins currently-correct behavior). Returns "" when all pass,
/// otherwise "<oracle>: <failure>" of the first failing oracle.
std::string replayCase(const CorpusCase& c, int threads = 2);

}  // namespace hybrid::testkit
