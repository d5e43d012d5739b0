#include "geom/region.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lte::geom {
namespace {

// Relative rounding allowance of Relate. A cross product (or a point or
// segment distance) rounds off by a few units in the last place of the
// magnitudes it combines, about 1e-15 of them; 1e-12 leaves a wide margin.
constexpr double kRelTol = 1e-12;

}  // namespace

ConvexRegion ConvexRegion::HullOf(
    const std::vector<std::vector<double>>& points) {
  ConvexRegion r;
  if (points.empty()) return r;
  const int64_t dim = static_cast<int64_t>(points.front().size());
  LTE_CHECK_MSG(dim == 1 || dim == 2, "ConvexRegion supports 1-D and 2-D");
  r.dimension_ = dim;
  if (dim == 1) {
    r.lo_ = points.front()[0];
    r.hi_ = points.front()[0];
    for (const auto& p : points) {
      LTE_CHECK_EQ(static_cast<int64_t>(p.size()), dim);
      r.lo_ = std::min(r.lo_, p[0]);
      r.hi_ = std::max(r.hi_, p[0]);
    }
    return r;
  }
  std::vector<Point2> pts;
  pts.reserve(points.size());
  for (const auto& p : points) {
    LTE_CHECK_EQ(static_cast<int64_t>(p.size()), dim);
    pts.push_back({p[0], p[1]});
  }
  r.hull_ = ConvexHull(std::move(pts));
  return r;
}

bool ConvexRegion::Contains(std::span<const double> point,
                            double eps) const {
  if (empty()) return false;
  LTE_CHECK_EQ(static_cast<int64_t>(point.size()), dimension_);
  if (dimension_ == 1) {
    return point[0] >= lo_ - eps && point[0] <= hi_ + eps;
  }
  return PointInConvexPolygon({point[0], point[1]}, hull_, eps);
}

BoxRelation ConvexRegion::Relate(const Box& box, double eps) const {
  if (empty()) return BoxRelation::kOutside;
  LTE_CHECK_EQ(dimension_, 2);
  if (hull_.size() < 3) {
    // Point or segment: Contains measures a distance to it, which is at
    // least the axis gap between the box and the hull's bounding box.
    double xlo = hull_[0].x;
    double xhi = xlo;
    double ylo = hull_[0].y;
    double yhi = ylo;
    for (const Point2& v : hull_) {
      xlo = std::min(xlo, v.x);
      xhi = std::max(xhi, v.x);
      ylo = std::min(ylo, v.y);
      yhi = std::max(yhi, v.y);
    }
    const double scale =
        std::max({std::abs(box.xlo), std::abs(box.xhi), std::abs(box.ylo),
                  std::abs(box.yhi), std::abs(xlo), std::abs(xhi),
                  std::abs(ylo), std::abs(yhi)});
    const double gap = eps + kRelTol * scale;
    if (box.xlo - xhi > gap || xlo - box.xhi > gap || box.ylo - yhi > gap ||
        ylo - box.yhi > gap) {
      return BoxRelation::kOutside;
    }
    return BoxRelation::kOpen;
  }
  // The same edges, in the same orientation, as PointInConvexPolygon.
  // Cross(a, b, p) = dx * (p.y - a.y) - dy * (p.x - a.x) is one term per
  // axis, so its extremes over the box pair the extremes of the two terms
  // (the very products Cross rounds at the corners).
  bool inside = true;
  for (size_t i = 0, j = hull_.size() - 1; i < hull_.size(); j = i++) {
    const Point2& a = hull_[j];
    const Point2& b = hull_[i];
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    const double u0 = dx * (box.ylo - a.y);
    const double u1 = dx * (box.yhi - a.y);
    const double v0 = dy * (box.xlo - a.x);
    const double v1 = dy * (box.xhi - a.x);
    const double lo = std::min(u0, u1) - std::max(v0, v1);
    const double hi = std::max(u0, u1) - std::min(v0, v1);
    const double tol =
        kRelTol * (std::max(std::abs(u0), std::abs(u1)) +
                   std::max(std::abs(v0), std::abs(v1)));
    if (hi < -eps - tol) return BoxRelation::kOutside;
    inside &= lo >= -eps + tol;
  }
  return inside ? BoxRelation::kInside : BoxRelation::kOpen;
}

void Region::AddPart(ConvexRegion part) {
  if (!part.empty()) parts_.push_back(std::move(part));
}

bool Region::Contains(std::span<const double> point, double eps) const {
  for (const ConvexRegion& part : parts_) {
    if (part.Contains(point, eps)) return true;
  }
  return false;
}

}  // namespace lte::geom
