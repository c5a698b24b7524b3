#pragma once

#include "geom/vec2.hpp"

namespace hybrid::geom {

/// Robust geometric predicates.
///
/// Each predicate first evaluates a floating-point approximation with a
/// forward error bound (Shewchuk-style static filter). Only when the
/// approximation is within the error bound of zero does it fall back to an
/// exact evaluation using multi-term expansions, so the common case is fast
/// and every answer has the correct sign.

/// Orientation of the triple (a, b, c):
///  +1 if counter-clockwise (c left of ray a->b),
///  -1 if clockwise,
///   0 if collinear.
int orient(Vec2 a, Vec2 b, Vec2 c);

/// In-circle test: +1 if d lies strictly inside the circle through a, b, c
/// (which must be in counter-clockwise order), -1 if strictly outside,
/// 0 if cocircular. For clockwise (a,b,c) the sign flips.
int inCircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

/// True if d lies strictly inside the circle with diameter ab (Gabriel test):
/// the sign of (a-d)·(b-d), filtered in floating point and exact otherwise.
bool inDiametralCircle(Vec2 a, Vec2 b, Vec2 d);

/// True if c lies on the closed segment [a, b] (collinear and between).
bool onSegment(Vec2 a, Vec2 b, Vec2 c);

}  // namespace hybrid::geom
