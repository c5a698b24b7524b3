#include "spatial/grid_index.hpp"

#include <bit>

namespace hybrid::spatial {

GridIndex::GridIndex(const std::vector<geom::Vec2>& points, double cellSize)
    : cell_(cellSize > 0.0 ? cellSize : 1.0),
      table_(std::bit_ceil(2 * points.size() + 2), -1),
      ids_(points.size()),
      pos_(points.size()) {
  shift_ = 64 - std::countr_zero(table_.size());
  // Find or add each point's cell and count its points in `end`.
  std::vector<int> cellOf(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::int64_t cx = coord(points[i].x);
    const std::int64_t cy = coord(points[i].y);
    const std::size_t s = slotFor(cx, cy);
    if (table_[s] == -1) {
      table_[s] = static_cast<int>(cells_.size());
      cells_.push_back({cx, cy, 0, 0});
    }
    cellOf[i] = table_[s];
    ++cells_[static_cast<std::size_t>(table_[s])].end;
  }
  // Turn counts into slices, then place points in ascending index order.
  int next = 0;
  for (Cell& c : cells_) {
    c.begin = next;
    next += c.end;
    c.end = c.begin;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    Cell& c = cells_[static_cast<std::size_t>(cellOf[i])];
    ids_[static_cast<std::size_t>(c.end)] = static_cast<int>(i);
    pos_[static_cast<std::size_t>(c.end)] = points[i];
    ++c.end;
  }
}

std::size_t GridIndex::slotFor(std::int64_t cx, std::int64_t cy) const {
  // Multiply-shift hashing: the product's top bits pick the first slot.
  const std::uint64_t h =
      (static_cast<std::uint64_t>(cx) * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(cy)) *
      0xBF58476D1CE4E5B9ULL;
  std::size_t s = static_cast<std::size_t>(h >> shift_);
  for (; table_[s] != -1; s = (s + 1) & (table_.size() - 1)) {
    const Cell& c = cells_[static_cast<std::size_t>(table_[s])];
    if (c.cx == cx && c.cy == cy) break;
  }
  return s;
}

}  // namespace hybrid::spatial
