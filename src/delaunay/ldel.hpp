#pragma once

#include <array>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"

namespace hybrid::delaunay {

/// Result of the 2-localized Delaunay construction (paper Definitions
/// 2.2/2.3 with k = 2). The graph contains all edges of 2-localized
/// triangles plus all Gabriel edges; it is planar (Li et al.) and a
/// 1.998-spanner of the unit disk graph (Xia).
struct LocalizedDelaunay {
  graph::GeometricGraph graph;                 ///< LDel^2(V) as a geometric graph.
  graph::GeometricGraph udg;                   ///< The underlying unit disk graph.
  std::vector<std::array<int, 3>> triangles;   ///< 2-localized triangles (sorted ids).
  std::vector<std::pair<int, int>> gabrielEdges;  ///< Gabriel edges (u < v).
  int removedCrossings = 0;  ///< Edges dropped by the safety planarization.
};

/// Options for the construction.
struct LDelOptions {
  double radius = 1.0;   ///< Unit disk (transmission) radius.

  /// Quasi-unit-disk (QUDG) radio model: links shorter than
  /// `reliableRadius` always exist; links in (reliableRadius, radius] are
  /// dropped independently with `dropProbability` (deterministic per edge
  /// given `dropSeed`). With dropProbability 0 this is the plain UDG.
  /// Models radio irregularity; the paper's UDG theorems do not cover it,
  /// so this powers the robustness study (bench/e13_qudg).
  double reliableRadius = 1.0;
  double dropProbability = 0.0;
  unsigned dropSeed = 1;

  /// Worker threads for the construction (2-hop neighborhoods, Gabriel
  /// and triangle tests). 0 = hardware concurrency. Chunked merging keeps
  /// the result bit-identical to a single-threaded build.
  int threads = 0;
};

/// Builds LDel^2(V). Each node's triangle test inspects only the 2-hop
/// neighborhood in the UDG, mirroring the distributed protocol of Li et al.
/// (paper section 5.1), executed here centrally. Crossing non-Gabriel
/// edges left by degenerate input are then dropped (`removedCrossings`).
LocalizedDelaunay buildLocalizedDelaunay(const std::vector<geom::Vec2>& points,
                                         const LDelOptions& opts = {});

/// The QUDG model's per-link coin: true if the link {u, v} (either order)
/// is dropped with probability `p`, deterministically given `seed`. Only
/// links longer than LDelOptions::reliableRadius are subject to it.
bool qudgLinkDropped(int u, int v, unsigned seed, double p);

}  // namespace hybrid::delaunay
