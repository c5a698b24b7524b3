#pragma once

#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/segment.hpp"
#include "geom/vec2.hpp"

namespace hybrid::geom {

/// A simple polygon given by its vertex ring (no repeated first vertex).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Vec2> vertices) : verts_(std::move(vertices)) {}

  const std::vector<Vec2>& vertices() const { return verts_; }
  std::size_t size() const { return verts_.size(); }
  bool empty() const { return verts_.empty(); }
  Vec2 vertex(std::size_t i) const { return verts_[i % verts_.size()]; }
  Segment edge(std::size_t i) const { return {vertex(i), vertex(i + 1)}; }

  /// Twice the signed area; positive for counter-clockwise rings.
  double signedArea2() const;
  double area() const { return std::abs(signedArea2()) / 2.0; }
  bool isCounterClockwise() const { return signedArea2() > 0.0; }
  double perimeter() const;
  BBox boundingBox() const { return BBox::of(verts_); }
  Vec2 centroid() const;
  bool isConvex() const;

  /// Reverses the vertex order (flips orientation).
  void reverse();

  /// True if p is inside or on the boundary.
  bool contains(Vec2 p) const;
  /// True if p is strictly interior.
  bool containsStrict(Vec2 p) const;
  /// True if p lies on an edge or vertex.
  bool onBoundary(Vec2 p) const;

  /// True if the open segment (s.a, s.b) passes through the polygon's
  /// strict interior. Touching the boundary (including sliding along an
  /// edge or grazing a vertex) does not count. This is the notion of
  /// "the segment intersects the hole" used for visibility.
  bool segmentIntersectsInterior(const Segment& s) const;

 private:
  std::vector<Vec2> verts_;
};

/// True if two convex polygons intersect: they share area, their boundaries
/// touch or cross, or one contains the other. False when either has fewer
/// than three vertices.
bool convexPolygonsIntersect(const Polygon& a, const Polygon& b);

/// True if p is strictly inside the closed ring `verts` (crossing number);
/// points on the boundary are outside. Polygon::containsStrict without the
/// copy into a Polygon.
bool ringContainsStrict(std::span<const Vec2> verts, Vec2 p);

/// Convex hull of a point set (monotone chain). Returns the hull vertices in
/// counter-clockwise order with collinear points dropped (strictly convex).
std::vector<Vec2> convexHull(std::vector<Vec2> points);

/// Convex hull returning indices into `points`, counter-clockwise,
/// strictly convex.
std::vector<int> convexHullIndices(const std::vector<Vec2>& points);

/// The convex hull's boundary cycle as indices into `points`,
/// counter-clockwise, keeping the points that lie on a hull edge: no
/// segment between consecutive entries passes through another point.
/// Empty when all points are collinear, as the hull then has no boundary
/// cycle.
std::vector<int> convexHullBoundaryIndices(const std::vector<Vec2>& points);

}  // namespace hybrid::geom
