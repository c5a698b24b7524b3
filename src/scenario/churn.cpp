#include "scenario/churn.hpp"

#include <algorithm>
#include <random>

namespace hybrid::scenario {

std::vector<std::vector<Update>> makeChurnTrace(const Scenario& initial,
                                                const ChurnParams& params) {
  // Shadow state the generator evolves optimistically: positions for move
  // targets and the obstacle count for removals. The service re-validates,
  // so divergence (rejected updates, connectivity evictions) is harmless.
  std::vector<geom::Vec2> pts = initial.points;
  std::size_t obstacles = initial.obstacles.size();

  double minX = 0.0, minY = 0.0, maxX = 1.0, maxY = 1.0;
  if (!pts.empty()) {
    minX = maxX = pts.front().x;
    minY = maxY = pts.front().y;
    for (const auto& p : pts) {
      minX = std::min(minX, p.x);
      maxX = std::max(maxX, p.x);
      minY = std::min(minY, p.y);
      maxY = std::max(maxY, p.y);
    }
  }

  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> step(-params.moveStep, params.moveStep);

  const double wJoin = std::max(0.0, params.joinWeight);
  const double wLeave = std::max(0.0, params.leaveWeight);
  const double wMove = std::max(0.0, params.moveWeight);
  const double wObs = std::max(0.0, params.obstacleWeight);
  const double total = wJoin + wLeave + wMove + wObs;

  std::vector<std::vector<Update>> trace;
  trace.reserve(static_cast<std::size_t>(std::max(0, params.epochs)));
  for (int e = 0; e < params.epochs; ++e) {
    std::vector<Update> batch;
    batch.reserve(static_cast<std::size_t>(std::max(0, params.updatesPerEpoch)));
    for (int i = 0; i < params.updatesPerEpoch; ++i) {
      if (pts.empty() || total <= 0.0) break;
      const auto pickNode = [&] {
        return static_cast<int>(rng() % pts.size());
      };
      Update u;
      const double coin = unit(rng) * total;
      if (coin < wJoin) {
        // Join near an existing node: keeps the newcomer inside radio
        // range often enough that joins actually stick.
        u.kind = UpdateKind::Join;
        const auto anchor = pts[static_cast<std::size_t>(pickNode())];
        u.pos = {anchor.x + step(rng), anchor.y + step(rng)};
        pts.push_back(u.pos);
      } else if (coin < wJoin + wLeave) {
        u.kind = UpdateKind::Leave;
        u.node = pickNode();
        pts.erase(pts.begin() + u.node);
      } else if (coin < wJoin + wLeave + wMove) {
        u.kind = UpdateKind::Move;
        u.node = pickNode();
        auto& p = pts[static_cast<std::size_t>(u.node)];
        u.pos = {p.x + step(rng), p.y + step(rng)};
        p = u.pos;
      } else if (obstacles == 0 || unit(rng) < 0.5) {
        u.kind = UpdateKind::ObstacleAdd;
        const auto c = pts[static_cast<std::size_t>(pickNode())];
        const double h = params.obstacleHalfSize;
        const double cx = std::clamp(c.x, minX, maxX);
        const double cy = std::clamp(c.y, minY, maxY);
        u.poly = {{cx - h, cy - h}, {cx + h, cy - h}, {cx + h, cy + h}, {cx - h, cy + h}};
        ++obstacles;
      } else {
        u.kind = UpdateKind::ObstacleRemove;
        u.obstacle = static_cast<int>(rng() % obstacles);
        --obstacles;
      }
      batch.push_back(std::move(u));
    }
    trace.push_back(std::move(batch));
  }
  return trace;
}

}  // namespace hybrid::scenario
