#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/vec2.hpp"

namespace hybrid::spatial {

/// Uniform grid over the plane for fixed-radius neighbor queries, stored
/// flat: the points' indices grouped by cell in one array, one record per
/// occupied cell with its slice of that array, and an open-addressing table
/// of record numbers. Memory is O(n) however far apart the points lie (only
/// occupied cells exist).
/// With cell size equal to the query radius, a radius query inspects at
/// most 9 cells, giving expected O(1 + output) time for bounded densities.
class GridIndex {
 public:
  GridIndex(const std::vector<geom::Vec2>& points, double cellSize);

  /// Calls visit(i) for every point i > `after` with dist2(points[i],
  /// center) <= radius² (inclusive), in a fixed order: cells by (dx, dy)
  /// offset from the center's cell, dx outer, and ascending index within a
  /// cell. Only cells that can hold such a point are looked up. `visit`
  /// returns false to stop early, and then so does this call. Allocates
  /// nothing.
  template <typename Visit>
  bool forEachWithin(geom::Vec2 center, double radius, Visit&& visit, int after = -1) const;

  double cellSize() const { return cell_; }

 private:
  /// One occupied cell: its coordinates and its slice [begin, end) of
  /// ids_/pos_.
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    int begin = 0;
    int end = 0;
  };

  static constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

  std::int64_t coord(double v) const { return static_cast<std::int64_t>(std::floor(v / cell_)); }
  /// The table slot that holds cell (cx, cy), or the empty slot where it
  /// would go.
  std::size_t slotFor(std::int64_t cx, std::int64_t cy) const;
  const Cell* find(std::int64_t cx, std::int64_t cy) const {
    const int c = table_[slotFor(cx, cy)];
    return c < 0 ? nullptr : &cells_[static_cast<std::size_t>(c)];
  }

  double cell_;
  std::vector<Cell> cells_;      ///< Occupied cells, in order of first point.
  std::vector<int> table_;       ///< cells_ index or -1; power of two, linear probing.
  int shift_ = 0;                ///< 64 - log2(table_.size()).
  std::vector<int> ids_;         ///< Point indices grouped by cell.
  std::vector<geom::Vec2> pos_;  ///< Positions, parallel to ids_.
};

template <typename Visit>
bool GridIndex::forEachWithin(geom::Vec2 center, double radius, Visit&& visit,
                              int after) const {
  const double r2 = radius * radius;
  const std::int64_t cx = coord(center.x);
  const std::int64_t cy = coord(center.y);
  const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
  // Skip the cells of the (dx, dy) square that miss the query disk's
  // bounding box; the rest keep their order. A point passing the float
  // distance test lies within radius·(1 + 3u) of the centre per axis, and
  // the box's rounded corners move by under 2u of |centre| + radius, so a
  // margin of 8 epsilons of that keeps every such point's cell.
  const double mx = 8.0 * kEpsilon * (std::fabs(center.x) + radius);
  const double my = 8.0 * kEpsilon * (std::fabs(center.y) + radius);
  const std::int64_t x0 = std::max(cx - reach, coord(center.x - radius - mx));
  const std::int64_t x1 = std::min(cx + reach, coord(center.x + radius + mx));
  const std::int64_t y0 = std::max(cy - reach, coord(center.y - radius - my));
  const std::int64_t y1 = std::min(cy + reach, coord(center.y + radius + my));
  for (std::int64_t x = x0; x <= x1; ++x) {
    for (std::int64_t y = y0; y <= y1; ++y) {
      const Cell* c = find(x, y);
      if (c == nullptr) continue;
      int k = c->begin;
      while (k < c->end && ids_[static_cast<std::size_t>(k)] <= after) ++k;
      for (; k < c->end; ++k) {
        if (geom::dist2(pos_[static_cast<std::size_t>(k)], center) <= r2 &&
            !visit(ids_[static_cast<std::size_t>(k)])) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace hybrid::spatial
