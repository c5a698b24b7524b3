#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>

#include "geom/angle.hpp"
#include "geom/bbox.hpp"
#include "geom/visibility.hpp"

namespace hybrid::geom {
namespace {

TEST(Angle, SignedTurn) {
  EXPECT_NEAR(signedTurnAngle({0, 0}, {1, 0}, {2, 0}), 0.0, 1e-12);
  EXPECT_NEAR(signedTurnAngle({0, 0}, {1, 0}, {1, 1}), std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(signedTurnAngle({0, 0}, {1, 0}, {1, -1}), -std::numbers::pi / 2, 1e-12);
}

TEST(Angle, TurningSumDistinguishesOrientation) {
  const std::vector<Vec2> ccw{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_NEAR(turningSum(ccw), 2.0 * std::numbers::pi, 1e-9);
  const std::vector<Vec2> cw{{0, 0}, {0, 1}, {1, 1}, {1, 0}};
  EXPECT_NEAR(turningSum(cw), -2.0 * std::numbers::pi, 1e-9);
}

TEST(Angle, TurningSumOnNonConvexRing) {
  // L-shape, ccw: still exactly +2*pi (this is what the distributed hole
  // detection relies on, paper §5.4).
  const std::vector<Vec2> l{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}};
  EXPECT_NEAR(turningSum(l), 2.0 * std::numbers::pi, 1e-9);
}

TEST(Angle, CcwAngleRange) {
  EXPECT_NEAR(ccwAngle({1, 0}, {0, 0}, {0, 1}), std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(ccwAngle({0, 1}, {0, 0}, {1, 0}), 1.5 * std::numbers::pi, 1e-12);
}

TEST(BBox, ExpandAndQueries) {
  BBox b;
  EXPECT_TRUE(b.empty());
  b.expand({1, 2});
  b.expand({4, -1});
  EXPECT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.width(), 3.0);
  EXPECT_DOUBLE_EQ(b.height(), 3.0);
  EXPECT_DOUBLE_EQ(b.circumference(), 12.0);
  EXPECT_TRUE(b.contains({2, 0}));
  EXPECT_FALSE(b.contains({0, 0}));
  BBox other;
  other.expand({3.5, 1.5});
  other.expand({9, 9});
  EXPECT_TRUE(b.intersects(other));
}

TEST(Visibility, BlockedBySinglePolygon) {
  const VisibilityContext ctx({Polygon({{2, -1}, {3, -1}, {3, 1}, {2, 1}})});
  EXPECT_FALSE(ctx.visible({0, 0}, {5, 0}));
  EXPECT_EQ(ctx.blockingObstacle({0, 0}, {5, 0}), 0);
  EXPECT_TRUE(ctx.visible({0, 0}, {1, 0}));
  EXPECT_TRUE(ctx.visible({0, 2}, {5, 2}));  // passes above
}

TEST(Visibility, AdjacencySymmetric) {
  const VisibilityContext ctx({Polygon({{1, 1}, {2, 1}, {2, 2}, {1, 2}})});
  const std::vector<Vec2> sites{{0, 0}, {3, 3}, {0, 3}, {3, 0}};
  const auto adj = buildVisibilityAdjacency(sites, ctx);
  ASSERT_EQ(adj.size(), 4u);
  for (std::size_t i = 0; i < adj.size(); ++i) {
    for (int j : adj[i]) {
      const auto& back = adj[static_cast<std::size_t>(j)];
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<int>(i)), back.end());
    }
  }
  // Diagonal (0,0)-(3,3) passes through the square: not visible.
  EXPECT_EQ(std::find(adj[0].begin(), adj[0].end(), 1), adj[0].end());
  // (0,3)-(3,3) along the top is visible.
  EXPECT_NE(std::find(adj[2].begin(), adj[2].end(), 1), adj[2].end());
}

}  // namespace
}  // namespace hybrid::geom
