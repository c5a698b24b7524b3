#include "geom/segment.hpp"

#include <algorithm>

#include "geom/predicates.hpp"

namespace hybrid::geom {

bool segmentsIntersect(const Segment& s, const Segment& t) {
  const int d1 = orient(t.a, t.b, s.a);
  const int d2 = orient(t.a, t.b, s.b);
  const int d3 = orient(s.a, s.b, t.a);
  const int d4 = orient(s.a, s.b, t.b);

  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && onSegment(t.a, t.b, s.a)) return true;
  if (d2 == 0 && onSegment(t.a, t.b, s.b)) return true;
  if (d3 == 0 && onSegment(s.a, s.b, t.a)) return true;
  if (d4 == 0 && onSegment(s.a, s.b, t.b)) return true;
  return false;
}

bool segmentsCrossProperly(const Segment& s, const Segment& t) {
  const int d1 = orient(t.a, t.b, s.a);
  const int d2 = orient(t.a, t.b, s.b);
  const int d3 = orient(s.a, s.b, t.a);
  const int d4 = orient(s.a, s.b, t.b);
  return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
         ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0));
}

bool segmentsInteriorsIntersect(const Segment& s, const Segment& t) {
  if (segmentsCrossProperly(s, t)) return true;

  // Remaining cases involve collinear overlap or an endpoint lying in the
  // other segment's interior.
  auto strictlyInside = [](Vec2 a, Vec2 b, Vec2 p) {
    return p != a && p != b && onSegment(a, b, p);
  };
  if (strictlyInside(t.a, t.b, s.a) || strictlyInside(t.a, t.b, s.b) ||
      strictlyInside(s.a, s.b, t.a) || strictlyInside(s.a, s.b, t.b)) {
    return true;
  }
  // Collinear segments sharing both endpoints (identical segments) overlap.
  if ((s.a == t.a && s.b == t.b) || (s.a == t.b && s.b == t.a)) return true;
  return false;
}

std::optional<Vec2> segmentIntersectionPoint(const Segment& s, const Segment& t) {
  const Vec2 r = s.b - s.a;
  const Vec2 q = t.b - t.a;
  const double denom = r.cross(q);
  if (denom == 0.0) return std::nullopt;
  const double u = (t.a - s.a).cross(q) / denom;
  return s.a + r * u;
}

Vec2 closestPointOnSegment(Vec2 p, const Segment& s) {
  const Vec2 d = s.b - s.a;
  const double len2 = d.norm2();
  if (len2 == 0.0) return s.a;
  const double t = std::clamp((p - s.a).dot(d) / len2, 0.0, 1.0);
  return s.a + d * t;
}

double pointSegmentDistance(Vec2 p, const Segment& s) {
  return dist(p, closestPointOnSegment(p, s));
}

}  // namespace hybrid::geom
