#include "geom/region.h"

#include <algorithm>

#include "common/check.h"

namespace lte::geom {

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
