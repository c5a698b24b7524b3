#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "scenario/generator.hpp"

namespace hybrid::scenario {

/// One mutation of a live deployment (node churn or an obstacle edit),
/// consumed by serve::RouteService. Node-addressed updates use the index
/// into the service's *current* point vector; the service re-validates
/// every update and rejects stale or invalid ones instead of guessing, so
/// a trace generated against an approximate view of the deployment is
/// still safe to apply.
enum class UpdateKind {
  Join,            ///< Add a node at `pos`.
  Leave,           ///< Remove node `node`.
  Move,            ///< Move node `node` to `pos`.
  ObstacleAdd,     ///< Add the polygon `poly`; covered nodes are evicted.
  ObstacleRemove,  ///< Remove obstacle `obstacle` (nodes do not return).
};

struct Update {
  UpdateKind kind = UpdateKind::Move;
  int node = -1;                ///< Leave/Move: index into the current points.
  geom::Vec2 pos{};             ///< Join position / Move destination.
  std::vector<geom::Vec2> poly; ///< ObstacleAdd footprint (ccw vertices).
  int obstacle = -1;            ///< ObstacleRemove: index into current obstacles.
};

/// Knobs of the seeded churn-trace generator. Weights are relative odds of
/// each update kind; `moveStep` bounds the per-axis move distance, the
/// paper's bounded-movement-speed model (§7) that makes incremental epoch
/// repair worthwhile in the first place.
struct ChurnParams {
  std::uint64_t seed = 1;
  int epochs = 8;
  int updatesPerEpoch = 6;
  double joinWeight = 1.0;
  double leaveWeight = 1.0;
  double moveWeight = 6.0;
  double obstacleWeight = 0.5;  ///< Split evenly between add and remove.
  double moveStep = 0.3;        ///< Max per-axis move/join-jitter distance.
  double obstacleHalfSize = 0.6;  ///< Half-extent of added rectangle obstacles.
};

/// Deterministic churn trace: per-epoch update batches derived purely from
/// (initial, params) — same inputs, same trace, on every run and machine.
/// The generator applies its own optimistic bookkeeping (every update
/// assumed accepted) to keep node indexes mostly valid; the occasional
/// stale index that slips through is rejected by the service, which is
/// itself a path churn traces are meant to exercise.
std::vector<std::vector<Update>> makeChurnTrace(const Scenario& initial,
                                                const ChurnParams& params);

}  // namespace hybrid::scenario
