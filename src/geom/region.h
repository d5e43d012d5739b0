#ifndef LTE_GEOM_REGION_H_
#define LTE_GEOM_REGION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/convex_hull.h"

namespace lte::geom {

/// A closed axis-aligned rectangle [xlo, xhi] x [ylo, yhi] (xlo <= xhi,
/// ylo <= yhi; a zero-width side is allowed).
struct Box {
  double xlo = 0.0;
  double xhi = 0.0;
  double ylo = 0.0;
  double yhi = 0.0;
};

/// What a 2-D region's `Contains` answers for every point of a Box: true
/// for all of them (kInside), false for all (kOutside), or not proven either
/// way (kOpen).
enum class BoxRelation { kInside, kOutside, kOpen };

/// One convex building block of a user interest subregion (UIS).
///
/// The paper formulates a simulated UIS as the union of α convex hulls, each
/// circumscribing the ψ nearest cluster centers of a random seed center
/// (Section V-C). Subspaces are 1-D or 2-D: a 1-D convex region is an
/// interval, a 2-D one a convex polygon.
class ConvexRegion {
 public:
  /// Builds the convex hull of `points` (each of dimension 1 or 2; all points
  /// must share the same dimension). Empty input yields an empty region.
  static ConvexRegion HullOf(const std::vector<std::vector<double>>& points);

  ConvexRegion() = default;

  /// Boundary-inclusive membership. `point` must match the region dimension;
  /// an empty region contains nothing. Allocation-free, so per-row callers
  /// can pass a stack array of column values.
  bool Contains(std::span<const double> point, double eps = 1e-9) const;
  bool Contains(const std::vector<double>& point, double eps = 1e-9) const {
    return Contains(std::span<const double>(point), eps);
  }

  /// Proves `Contains(p, eps)` constant over every double point p of
  /// `box`, or answers kOpen. Sound but incomplete: kInside and kOutside
  /// are never wrong, and a box the proof cannot settle is kOpen. Requires a
  /// 2-D region; an empty one excludes every box.
  ///
  /// `Cross(a, b, p)` is affine in p, so over a box its extremes sit at the
  /// corners. A polygon contains the box when every edge's cross product is
  /// >= -eps + tol at all four corners, and excludes it when some edge's is
  /// < -eps - tol at all four. `tol` bounds twice the rounding error of a
  /// cross product anywhere in the box, so the proof holds for the rounded
  /// values `Contains` computes, not just the exact ones. A point or segment
  /// hull is never proven to contain a box; it excludes a box that lies more
  /// than eps + tol beyond its bounding box along an axis.
  BoxRelation Relate(const Box& box, double eps = 1e-9) const;

  int64_t dimension() const { return dimension_; }
  bool empty() const { return dimension_ == 0; }

  /// 2-D hull vertices (CCW); empty for 1-D regions.
  const std::vector<Point2>& hull() const { return hull_; }
  /// 1-D interval bounds; meaningful only for dimension()==1.
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  int64_t dimension_ = 0;
  std::vector<Point2> hull_;  // dimension == 2
  double lo_ = 0.0;           // dimension == 1
  double hi_ = 0.0;
};

/// A UIS of arbitrary shape: the union of convex parts. By the convex
/// decomposition theory the paper invokes, any (possibly concave or
/// disconnected) region can be represented this way.
class Region {
 public:
  Region() = default;

  void AddPart(ConvexRegion part);

  /// True when any convex part contains the point.
  bool Contains(std::span<const double> point, double eps = 1e-9) const;
  bool Contains(const std::vector<double>& point, double eps = 1e-9) const {
    return Contains(std::span<const double>(point), eps);
  }

  const std::vector<ConvexRegion>& parts() const { return parts_; }
  bool empty() const { return parts_.empty(); }

 private:
  std::vector<ConvexRegion> parts_;
};

}  // namespace lte::geom

#endif  // LTE_GEOM_REGION_H_
