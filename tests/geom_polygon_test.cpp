#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "geom/polygon.hpp"
#include "geom/predicates.hpp"

namespace hybrid::geom {
namespace {

Polygon unitSquare() { return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}}); }

Polygon lShape() {
  // Counter-clockwise L: a 2x2 square minus the top-right 1x1 quadrant.
  return Polygon({{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}});
}

TEST(Polygon, AreaPerimeterOrientation) {
  const Polygon sq = unitSquare();
  EXPECT_DOUBLE_EQ(sq.area(), 1.0);
  EXPECT_DOUBLE_EQ(sq.perimeter(), 4.0);
  EXPECT_TRUE(sq.isCounterClockwise());
  EXPECT_TRUE(sq.isConvex());

  Polygon rev = sq;
  rev.reverse();
  EXPECT_FALSE(rev.isCounterClockwise());
  EXPECT_DOUBLE_EQ(rev.area(), 1.0);

  const Polygon l = lShape();
  EXPECT_DOUBLE_EQ(l.area(), 3.0);
  EXPECT_FALSE(l.isConvex());
}

TEST(Polygon, Centroid) {
  EXPECT_EQ(unitSquare().centroid(), (Vec2{0.5, 0.5}));
}

TEST(Polygon, Containment) {
  const Polygon l = lShape();
  EXPECT_TRUE(l.containsStrict({0.5, 0.5}));
  EXPECT_TRUE(l.containsStrict({0.5, 1.5}));
  EXPECT_FALSE(l.containsStrict({1.5, 1.5}));  // the notch
  EXPECT_FALSE(l.containsStrict({3.0, 0.5}));
  // Boundary: contained non-strictly.
  EXPECT_TRUE(l.contains({1.0, 1.5}));
  EXPECT_FALSE(l.containsStrict({1.0, 1.5}));
  EXPECT_TRUE(l.onBoundary({1.0, 1.5}));
  EXPECT_TRUE(l.onBoundary({0.0, 0.0}));  // vertex
}

TEST(Polygon, SegmentInteriorIntersection) {
  const Polygon sq = unitSquare();
  // Clean crossing.
  EXPECT_TRUE(sq.segmentIntersectsInterior({{-1, 0.5}, {2, 0.5}}));
  // Fully inside.
  EXPECT_TRUE(sq.segmentIntersectsInterior({{0.2, 0.2}, {0.8, 0.8}}));
  // Fully outside.
  EXPECT_FALSE(sq.segmentIntersectsInterior({{-1, -1}, {-2, 5}}));
  // Sliding along an edge: boundary only, no interior.
  EXPECT_FALSE(sq.segmentIntersectsInterior({{-1, 0}, {2, 0}}));
  // Grazing a vertex from outside.
  EXPECT_FALSE(sq.segmentIntersectsInterior({{-1, 1}, {1, 3}}));
  // Through two vertices diagonally: passes through the interior.
  EXPECT_TRUE(sq.segmentIntersectsInterior({{-1, -1}, {2, 2}}));
  // Endpoint on the boundary, rest outside.
  EXPECT_FALSE(sq.segmentIntersectsInterior({{1, 0.5}, {3, 0.5}}));
  // Endpoint on the boundary, rest inside.
  EXPECT_TRUE(sq.segmentIntersectsInterior({{1, 0.5}, {0.5, 0.5}}));
}

TEST(Polygon, SegmentThroughNotchOfLShape) {
  const Polygon l = lShape();
  // Passes through the notch only: no interior contact.
  EXPECT_FALSE(l.segmentIntersectsInterior({{1.2, 2.5}, {2.5, 1.2}}));
  // Crosses the vertical leg.
  EXPECT_TRUE(l.segmentIntersectsInterior({{-0.5, 1.5}, {1.5, 1.5}}));
}

TEST(ConvexHull, BasicShapes) {
  const auto hull = convexHull({{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}, {0.5, 0.5}});
  EXPECT_EQ(hull.size(), 4u);
  const Polygon hp(hull);
  EXPECT_TRUE(hp.isConvex());
  EXPECT_TRUE(hp.isCounterClockwise());
}

TEST(ConvexHull, CollinearPointsDropped) {
  const auto hull = convexHull({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}});
  EXPECT_EQ(hull.size(), 3u);
}

TEST(ConvexHull, DegenerateInputs) {
  EXPECT_TRUE(convexHull({}).empty());
  EXPECT_EQ(convexHull({{1, 1}}).size(), 1u);
  EXPECT_EQ(convexHull({{1, 1}, {2, 2}}).size(), 2u);
  // All identical points collapse to one.
  EXPECT_EQ(convexHull({{1, 1}, {1, 1}, {1, 1}}).size(), 1u);
  // All collinear: two endpoints.
  EXPECT_EQ(convexHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}}).size(), 2u);
}

TEST(ConvexHull, IndicesMatchPositions) {
  const std::vector<Vec2> pts{{0, 0}, {5, 1}, {2, 8}, {3, 3}, {1, 1}};
  const auto idx = convexHullIndices(pts);
  const auto pos = convexHull(pts);
  ASSERT_EQ(idx.size(), pos.size());
  std::vector<Vec2> fromIdx;
  for (int i : idx) fromIdx.push_back(pts[static_cast<std::size_t>(i)]);
  // Same cyclic sequence (both ccw); align the starting point.
  const auto it = std::find(fromIdx.begin(), fromIdx.end(), pos[0]);
  ASSERT_NE(it, fromIdx.end());
  std::rotate(fromIdx.begin(), it, fromIdx.end());
  EXPECT_EQ(fromIdx, pos);
}

TEST(ConvexHull, BoundaryKeepsCollinearPoints) {
  // Points on a small integer grid: many lie on hull edges, including the
  // vertical end columns where a monotone chain is easy to get wrong.
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> coord(0, 4);
  for (int it = 0; it < 300; ++it) {
    std::vector<Vec2> pts(3 + it % 12);
    for (auto& p : pts) p = {static_cast<double>(coord(rng)), static_cast<double>(coord(rng))};
    const Polygon strict(convexHull(pts));
    const auto ring = convexHullBoundaryIndices(pts);
    if (strict.size() < 3) {
      EXPECT_TRUE(ring.empty());
      continue;
    }
    // Exactly the distinct points on the hull boundary, each once, in ccw
    // order, with no point strictly inside a segment of the ring.
    std::vector<Vec2> onHull;
    for (const Vec2 p : pts) {
      if (strict.onBoundary(p)) onHull.push_back(p);
    }
    std::sort(onHull.begin(), onHull.end());
    onHull.erase(std::unique(onHull.begin(), onHull.end()), onHull.end());
    std::vector<Vec2> got;
    for (int i : ring) got.push_back(pts[static_cast<std::size_t>(i)]);
    EXPECT_GT(Polygon(got).signedArea2(), 0.0);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Vec2 a = got[i];
      const Vec2 b = got[(i + 1) % got.size()];
      for (const Vec2 p : pts) {
        EXPECT_FALSE(p != a && p != b && onSegment(a, b, p)) << "segment runs through a point";
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, onHull);
  }
  EXPECT_TRUE(convexHullBoundaryIndices({{0, 0}, {1, 1}, {2, 2}, {3, 3}}).empty());
  EXPECT_TRUE(convexHullBoundaryIndices({{1, 1}, {2, 2}}).empty());
  EXPECT_TRUE(convexHullBoundaryIndices({}).empty());
}

// Property: every input point is inside (or on) the hull, and the hull is
// convex and ccw.
class HullFuzz : public ::testing::TestWithParam<int> {};

TEST_P(HullFuzz, HullContainsAllPoints) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 17 + 1);
  std::uniform_real_distribution<double> d(-100.0, 100.0);
  std::vector<Vec2> pts(60);
  for (auto& p : pts) p = {d(rng), d(rng)};
  const Polygon hull(convexHull(pts));
  ASSERT_GE(hull.size(), 3u);
  EXPECT_TRUE(hull.isConvex());
  EXPECT_TRUE(hull.isCounterClockwise());
  for (const auto& p : pts) EXPECT_TRUE(hull.contains(p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HullFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace hybrid::geom
