#pragma once

#include <optional>

#include "geom/vec2.hpp"

namespace hybrid::geom {

/// A closed line segment between two endpoints.
struct Segment {
  Vec2 a;
  Vec2 b;

  double length() const { return dist(a, b); }
  Vec2 direction() const { return b - a; }
};

/// True if segments intersect in at least one point (endpoints count).
bool segmentsIntersect(const Segment& s, const Segment& t);

/// True if the segments cross properly: they intersect in exactly one point
/// that is interior to both segments.
bool segmentsCrossProperly(const Segment& s, const Segment& t);

/// True if the open interiors of the segments share a point. This is the
/// "proper crossing or interior overlap" test used by planarity checks:
/// touching only at shared endpoints does NOT count.
bool segmentsInteriorsIntersect(const Segment& s, const Segment& t);

/// Intersection point of properly crossing segments (or lines through them,
/// when called on non-parallel segments that are known to cross).
/// Returns nullopt for parallel segments.
std::optional<Vec2> segmentIntersectionPoint(const Segment& s, const Segment& t);

/// Euclidean distance from point p to the closed segment.
double pointSegmentDistance(Vec2 p, const Segment& s);

/// Closest point on the closed segment to p.
Vec2 closestPointOnSegment(Vec2 p, const Segment& s);

}  // namespace hybrid::geom
