#pragma once

#include <cmath>
#include <compare>
#include <iosfwd>

namespace hybrid::geom {

/// A point / vector in the Euclidean plane. Value type, trivially copyable.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double xx, double yy) : x(xx), y(yy) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }

  constexpr Vec2& operator+=(Vec2 o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr Vec2& operator-=(Vec2 o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  constexpr Vec2& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }

  friend constexpr bool operator==(Vec2 a, Vec2 b) = default;
  /// Lexicographic (x, then y); used by hull/sweep algorithms.
  friend constexpr auto operator<=>(Vec2 a, Vec2 b) = default;

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// z-component of the 3D cross product; >0 iff `o` is ccw of *this.
  constexpr double cross(Vec2 o) const { return x * o.y - y * o.x; }

  constexpr double norm2() const { return x * x + y * y; }
  double norm() const { return std::hypot(x, y); }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

inline double dist(Vec2 a, Vec2 b) { return (a - b).norm(); }
constexpr double dist2(Vec2 a, Vec2 b) { return (a - b).norm2(); }

/// Midpoint of the segment ab.
constexpr Vec2 midpoint(Vec2 a, Vec2 b) { return {(a.x + b.x) / 2.0, (a.y + b.y) / 2.0}; }

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace hybrid::geom
