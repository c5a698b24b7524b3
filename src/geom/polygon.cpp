#include "geom/polygon.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geom/predicates.hpp"

namespace hybrid::geom {

double Polygon::signedArea2() const {
  double s = 0.0;
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    const Vec2 a = vertex(i);
    const Vec2 b = vertex(i + 1);
    s += a.cross(b);
  }
  return s;
}

double Polygon::perimeter() const {
  double s = 0.0;
  for (std::size_t i = 0; i < verts_.size(); ++i) s += edge(i).length();
  return s;
}

Vec2 Polygon::centroid() const {
  // Area-weighted centroid; falls back to vertex mean for degenerate rings.
  double a2 = 0.0;
  Vec2 c{0.0, 0.0};
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    const Vec2 p = vertex(i);
    const Vec2 q = vertex(i + 1);
    const double w = p.cross(q);
    a2 += w;
    c += (p + q) * w;
  }
  if (std::abs(a2) > 1e-30) return c / (3.0 * a2);
  Vec2 mean{0.0, 0.0};
  for (Vec2 v : verts_) mean += v;
  return verts_.empty() ? mean : mean / static_cast<double>(verts_.size());
}

bool Polygon::isConvex() const {
  if (verts_.size() < 3) return false;
  int sign = 0;
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    const int o = orient(vertex(i), vertex(i + 1), vertex(i + 2));
    if (o == 0) continue;
    if (sign == 0) {
      sign = o;
    } else if (o != sign) {
      return false;
    }
  }
  return true;
}

void Polygon::reverse() { std::reverse(verts_.begin(), verts_.end()); }

bool Polygon::onBoundary(Vec2 p) const {
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    const Segment e = edge(i);
    if (onSegment(e.a, e.b, p)) return true;
  }
  return false;
}

bool Polygon::contains(Vec2 p) const {
  if (onBoundary(p)) return true;
  return containsStrict(p);
}

bool Polygon::containsStrict(Vec2 p) const { return ringContainsStrict(verts_, p); }

bool ringContainsStrict(std::span<const Vec2> verts, Vec2 p) {
  const std::size_t n = verts.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (onSegment(verts[i], verts[(i + 1) % n], p)) return false;
  }
  // Crossing-number test with careful vertex handling: count edges that
  // straddle the horizontal ray to the right of p.
  bool inside = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 a = verts[i];
    const Vec2 b = verts[(i + 1) % n];
    const bool aAbove = a.y > p.y;
    const bool bAbove = b.y > p.y;
    if (aAbove == bAbove) continue;
    // x-coordinate of the edge at height p.y.
    const double xCross = a.x + (b.x - a.x) * (p.y - a.y) / (b.y - a.y);
    if (xCross > p.x) inside = !inside;
  }
  return inside;
}

bool Polygon::segmentIntersectsInterior(const Segment& s) const {
  if (verts_.size() < 3) return false;
  if (s.a == s.b) return containsStrict(s.a);

  // Collect the parameters along s where it meets the polygon boundary,
  // then test the midpoint of every maximal sub-segment for strict
  // containment. This handles grazing vertices and collinear slides
  // without case analysis. The scratch vector is thread-local so the
  // visibility checks on the routing hot path stay allocation-free once
  // its capacity has grown.
  static thread_local std::vector<double> params;
  params.clear();
  params.push_back(0.0);
  params.push_back(1.0);
  const Vec2 d = s.b - s.a;
  const double len2 = d.norm2();
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    const Segment e = edge(i);
    if (!segmentsIntersect(s, e)) continue;
    if (auto ip = segmentIntersectionPoint(s, e)) {
      const double t = (*ip - s.a).dot(d) / len2;
      if (t > 0.0 && t < 1.0) params.push_back(t);
    } else {
      // Parallel/collinear contact: record the projections of the edge
      // endpoints that lie on s.
      for (Vec2 q : {e.a, e.b}) {
        if (onSegment(s.a, s.b, q)) {
          const double t = (q - s.a).dot(d) / len2;
          if (t > 0.0 && t < 1.0) params.push_back(t);
        }
      }
    }
  }
  std::sort(params.begin(), params.end());
  for (std::size_t i = 0; i + 1 < params.size(); ++i) {
    const double mid = (params[i] + params[i + 1]) / 2.0;
    if (mid <= 0.0 || mid >= 1.0) continue;
    if (containsStrict(s.a + d * mid)) return true;
  }
  return false;
}

std::vector<Vec2> convexHull(std::vector<Vec2> points) {
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t n = points.size();
  if (n <= 2) return points;

  std::vector<Vec2> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {  // lower hull
    while (k >= 2 && orient(hull[k - 2], hull[k - 1], points[i]) <= 0) --k;
    hull[k++] = points[i];
  }
  const std::size_t lower = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {  // upper hull
    while (k >= lower && orient(hull[k - 2], hull[k - 1], points[i]) <= 0) --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);
  return hull;
}

namespace {

// Andrew's monotone chain over the distinct points, as indices,
// counter-clockwise. Points on a hull edge are popped unless
// `keepCollinear`; the caller rules out an all-collinear input then, since
// the chain would run out along the line and back.
std::vector<int> monotoneChain(const std::vector<Vec2>& points, bool keepCollinear) {
  std::vector<int> idx(points.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](int a, int b) { return points[a] < points[b]; });
  idx.erase(std::unique(idx.begin(), idx.end(),
                        [&](int a, int b) { return points[a] == points[b]; }),
            idx.end());
  const std::size_t n = idx.size();
  if (n <= 2) return idx;

  // Pop while the chain turns clockwise, or runs straight on unless
  // collinear points stay.
  const int minTurn = keepCollinear ? 0 : 1;
  std::vector<int> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 &&
           orient(points[hull[k - 2]], points[hull[k - 1]], points[idx[i]]) < minTurn)
      --k;
    hull[k++] = idx[i];
  }
  const std::size_t lower = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    while (k >= lower &&
           orient(points[hull[k - 2]], points[hull[k - 1]], points[idx[i]]) < minTurn)
      --k;
    hull[k++] = idx[i];
  }
  hull.resize(k - 1);
  return hull;
}

}  // namespace

bool convexPolygonsIntersect(const Polygon& a, const Polygon& b) {
  if (a.size() < 3 || b.size() < 3) return false;
  if (!a.boundingBox().intersects(b.boundingBox())) return false;
  for (const Vec2 p : b.vertices()) {
    if (a.contains(p)) return true;
  }
  for (const Vec2 p : a.vertices()) {
    if (b.contains(p)) return true;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (segmentsIntersect(a.edge(i), b.edge(j))) return true;
    }
  }
  return false;
}

std::vector<int> convexHullIndices(const std::vector<Vec2>& points) {
  return monotoneChain(points, false);
}

std::vector<int> convexHullBoundaryIndices(const std::vector<Vec2>& points) {
  const auto [lo, hi] = std::minmax_element(points.begin(), points.end());
  const auto onLine = [&](Vec2 p) { return orient(*lo, *hi, p) == 0; };
  if (std::all_of(points.begin(), points.end(), onLine)) return {};
  return monotoneChain(points, true);
}

}  // namespace hybrid::geom
