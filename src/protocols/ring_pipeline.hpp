#pragma once

#include <vector>

#include "protocols/reliable.hpp"
#include "sim/simulator.hpp"

namespace hybrid::protocols {

/// Input: the boundary rings (holes and the outer boundary). Each node on a
/// ring knows only its ring predecessor and successor — in the real system
/// it derives them locally by sorting its boundary neighbors clockwise
/// (paper §5.2); here the rings come from the hole-detection oracle.
struct RingInputs {
  std::vector<std::vector<int>> rings;  ///< Node ids in ring order.
};

/// Per-ring results of the distributed pipeline.
struct RingResult {
  int leader = -1;
  int size = 0;               ///< k, learned via aggregation.
  double turningAngle = 0.0;  ///< +2*pi (ccw ring) or -2*pi (cw = outer boundary).
  std::vector<int> hull;      ///< Convex hull node ids (every member learns these).
};

/// Round counts per phase, for the experiment harness.
struct RingPipelineRounds {
  int pointerJumping = 0;
  int idAssignment = 0;
  int aggregation = 0;
  int broadcast = 0;
  int total() const { return pointerJumping + idAssignment + aggregation + broadcast; }

  RingPipelineRounds& operator+=(const RingPipelineRounds& o);
};

/// Distributed computation on boundary rings (paper §5.2-§5.4), all rings
/// in parallel on one simulator:
///  1. pointer jumping: leader election + doubling contacts, O(log k),
///  2. hypercube ID assignment (ring distance from the leader), O(log k),
///  3. block aggregation up the implicit binomial tree: ring size, turning
///     angle (hole detection), and the convex hull (merge of sub-hulls,
///     the Miller-Stout-style divide and conquer), O(log k),
///  4. broadcast of the results back down, O(log k).
class RingPipeline {
 public:
  /// With `retry` set, every phase runs under the ReliableProtocol ARQ
  /// wrapper, so the pipeline completes correctly on a fault-injected
  /// simulator (all phases are event-driven, not round-scheduled).
  RingPipeline(sim::Simulator& simulator, RingInputs inputs,
               const RetryPolicy* retry = nullptr);

  /// Runs all four phases; returns per-ring results.
  std::vector<RingResult> run();

  const RingPipelineRounds& rounds() const { return rounds_; }
  /// Transport counters summed over all phases (all zero without retry).
  const ReliableStats& reliableStats() const { return reliableStats_; }

  /// Ring-distance ID of a node after phase 2 (-1 if not on any ring).
  int ringIdOf(int node) const { return ringId_[static_cast<std::size_t>(node)]; }

 private:
  int runPhase(sim::Protocol& phase);

  sim::Simulator& sim_;
  RingInputs inputs_;
  bool withRetry_ = false;
  ReliableStats reliableStats_;
  RingPipelineRounds rounds_;
  std::vector<int> ringId_;
};

}  // namespace hybrid::protocols
