#pragma once

#include <cmath>

#include "geom/predicates.hpp"
#include "geom/vec2.hpp"

namespace hybrid::geom {

/// Strict containment in the circumcircle of one triangle (a, b, c) whose
/// exact orientation `o` is nonzero, for many query points. Both LDel^2
/// builds (delaunay/ldel and protocols/ldel_protocol) test triangles with
/// it, so they agree bit for bit.
///
/// With b, c and p taken relative to a, the in-circle determinant of p is
/// the lifted-plane value
///   f(p) = D·|p|² + Ex·px + Ey·py,   D = bx·cy − by·cx,
///   Ex = by·|c|² − |b|²·cy,          Ey = |b|²·cx − bx·|c|²,
/// which equals D·(|p|² − 2·m·p) for the circumcentre m (relative to a), so
/// p is strictly inside iff f(p) has the sign opposite to o; inCircle
/// returns −sign f(p). The coefficients are computed once per triangle.
///
/// Filter: every monomial of the float f carries at most 11 rounding
/// factors (1+δ), |δ| <= u (one per rounded difference, product and sum on
/// its path: D·|p|² collects 2+1+1 and 2+1+1 and the product's 1, Ex·px
/// collects 7 and 1 and 1, and the two final sums add up to 2). So
/// |f~ − f| <= γ11·P with γ11 = 11u/(1−11u) and P the sum of the monomials'
/// magnitudes over exact differences. The float permanent P~ follows the
/// same tree over magnitudes, without cancellation, so P <= P~/(1−u)^11;
/// 12u·P~ bounds γ11·P plus the rounding of the bound itself. Barring
/// underflow, |f~| above it has the exact sign; otherwise inCircle decides
/// exactly.
class Circumcircle {
 public:
  Circumcircle(Vec2 a, Vec2 b, Vec2 c, int o) : a_(a), b_(b), c_(c), o_(o) {
    const double bx = b.x - a.x;
    const double by = b.y - a.y;
    const double cx = c.x - a.x;
    const double cy = c.y - a.y;
    const double lb = bx * bx + by * by;
    const double lc = cx * cx + cy * cy;
    const double bxcy = bx * cy;
    const double bycx = by * cx;
    const double bylc = by * lc;
    const double lbcy = lb * cy;
    const double lbcx = lb * cx;
    const double bxlc = bx * lc;
    d_ = bxcy - bycx;
    ex_ = bylc - lbcy;
    ey_ = lbcx - bxlc;
    dPerm_ = std::fabs(bxcy) + std::fabs(bycx);
    exPerm_ = std::fabs(bylc) + std::fabs(lbcy);
    eyPerm_ = std::fabs(lbcx) + std::fabs(bxlc);
  }

  bool contains(Vec2 p) const {
    const double px = p.x - a_.x;
    const double py = p.y - a_.y;
    const double lp = px * px + py * py;
    const double f = d_ * lp + px * ex_ + py * ey_;
    const double perm = dPerm_ * lp + std::fabs(px) * exPerm_ + std::fabs(py) * eyPerm_;
    const double bound = kErrBound * perm;
    if (f > bound) return o_ < 0;
    if (f < -bound) return o_ > 0;
    const int ic = inCircle(a_, b_, c_, p);
    return o_ > 0 ? ic > 0 : ic < 0;
  }

 private:
  // Relative error bound of the lifted-circle value: 12u, u = 2^-53.
  static constexpr double kErrBound = 12.0 * 0x1p-53;

  Vec2 a_, b_, c_;
  int o_;
  double d_, ex_, ey_;
  double dPerm_, exPerm_, eyPerm_;
};

}  // namespace hybrid::geom
