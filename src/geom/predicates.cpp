#include "geom/predicates.hpp"

#include <cmath>
#include <ostream>

#include "geom/expansion.hpp"

namespace hybrid::geom {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

namespace {

constexpr double kEps = 1.1102230246251565e-16;  // 2^-53
// Error-bound coefficients from Shewchuk's "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates".
const double kCcwErrBound = (3.0 + 16.0 * kEps) * kEps;
const double kIccErrBound = (10.0 + 96.0 * kEps) * kEps;
// Relative error bound of the float diametral dot product (derivation in
// inDiametralCircle).
constexpr double kDiametralErrBound = 5.0 * kEps;

int orientExact(Vec2 a, Vec2 b, Vec2 c) {
  const Expansion acx = Expansion::twoDiff(a.x, c.x);
  const Expansion acy = Expansion::twoDiff(a.y, c.y);
  const Expansion bcx = Expansion::twoDiff(b.x, c.x);
  const Expansion bcy = Expansion::twoDiff(b.y, c.y);
  const Expansion det = acx * bcy - acy * bcx;
  return det.sign();
}

int inCircleExact(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const Expansion adx = Expansion::twoDiff(a.x, d.x);
  const Expansion ady = Expansion::twoDiff(a.y, d.y);
  const Expansion bdx = Expansion::twoDiff(b.x, d.x);
  const Expansion bdy = Expansion::twoDiff(b.y, d.y);
  const Expansion cdx = Expansion::twoDiff(c.x, d.x);
  const Expansion cdy = Expansion::twoDiff(c.y, d.y);

  const Expansion alift = adx * adx + ady * ady;
  const Expansion blift = bdx * bdx + bdy * bdy;
  const Expansion clift = cdx * cdx + cdy * cdy;

  const Expansion ab = adx * bdy - ady * bdx;
  const Expansion bc = bdx * cdy - bdy * cdx;
  const Expansion ca = cdx * ady - cdy * adx;

  const Expansion det = alift * bc + blift * ca + clift * ab;
  return det.sign();
}

}  // namespace

int orient(Vec2 a, Vec2 b, Vec2 c) {
  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double det = detleft - detright;

  double detsum = 0.0;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    detsum = -detleft - detright;
  } else {
    return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
  }

  const double errbound = kCcwErrBound * detsum;
  if (det > errbound || -det > errbound) return det > 0.0 ? 1 : -1;
  return orientExact(a, b, c);
}

int inCircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const double adx = a.x - d.x;
  const double ady = a.y - d.y;
  const double bdx = b.x - d.x;
  const double bdy = b.y - d.y;
  const double cdx = c.x - d.x;
  const double cdy = c.y - d.y;

  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;

  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;

  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
                           (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
                           (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  const double errbound = kIccErrBound * permanent;
  if (det > errbound || -det > errbound) return det > 0.0 ? 1 : -1;
  return inCircleExact(a, b, c, d);
}

bool inDiametralCircle(Vec2 a, Vec2 b, Vec2 d) {
  // d is strictly inside the circle with diameter ab iff the angle (a,d,b)
  // is obtuse, i.e. (a-d)·(b-d) < 0.
  //
  // Filter: each of the two products in the float dot product carries at
  // most four rounding factors (1+δ), |δ| <= u = 2^-53: one per rounded
  // difference, the product and the sum. So |dot~ - dot| <= γ4·P with
  // γ4 = 4u/(1-4u) and P = |adx·bdx| + |ady·bdy| over the exact
  // differences. The float permanent P~ has the same factors and no
  // cancellation, so P <= P~/(1-u)^4, and kDiametralErrBound = 5u bounds
  // γ4/(1-u)^4 plus the rounding of the bound's own product with room to
  // spare. Barring underflow, |dot~| above it has the exact sign;
  // otherwise evaluate exactly.
  const double adxf = a.x - d.x;
  const double adyf = a.y - d.y;
  const double bdxf = b.x - d.x;
  const double bdyf = b.y - d.y;
  const double xx = adxf * bdxf;
  const double yy = adyf * bdyf;
  const double dotf = xx + yy;
  const double errbound = kDiametralErrBound * (std::fabs(xx) + std::fabs(yy));
  if (dotf > errbound || -dotf > errbound) return dotf < 0.0;

  const Expansion adx = Expansion::twoDiff(a.x, d.x);
  const Expansion ady = Expansion::twoDiff(a.y, d.y);
  const Expansion bdx = Expansion::twoDiff(b.x, d.x);
  const Expansion bdy = Expansion::twoDiff(b.y, d.y);
  const Expansion dot = adx * bdx + ady * bdy;
  return dot.sign() < 0;
}

bool onSegment(Vec2 a, Vec2 b, Vec2 c) {
  if (orient(a, b, c) != 0) return false;
  return std::min(a.x, b.x) <= c.x && c.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= c.y && c.y <= std::max(a.y, b.y);
}

}  // namespace hybrid::geom
