#include "geom/convex_hull.h"

#include <algorithm>
#include <cmath>

namespace lte::geom {

double Cross(const Point2& a, const Point2& b, const Point2& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

namespace {

bool LexLess(const Point2& a, const Point2& b) {
  return a.x < b.x || (a.x == b.x && a.y < b.y);
}

bool NearlyEqual(const Point2& a, const Point2& b) {
  return a.x == b.x && a.y == b.y;
}

// Distance from p to segment [a, b].
double SegmentDistance(const Point2& p, const Point2& a, const Point2& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double px = a.x + t * dx - p.x;
  const double py = a.y + t * dy - p.y;
  return std::sqrt(px * px + py * py);
}

}  // namespace

std::vector<Point2> ConvexHull(std::vector<Point2> points) {
  std::sort(points.begin(), points.end(), LexLess);
  points.erase(std::unique(points.begin(), points.end(), NearlyEqual),
               points.end());
  const size_t n = points.size();
  if (n <= 2) return points;

  std::vector<Point2> hull(2 * n);
  size_t k = 0;
  // Lower hull.
  for (size_t i = 0; i < n; ++i) {
    while (k >= 2 && Cross(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  // Upper hull.
  const size_t lower = k + 1;
  for (size_t i = n - 1; i-- > 0;) {
    while (k >= lower && Cross(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);  // The last point equals the first.
  if (hull.size() < 3) {
    // All input points were collinear; the loop above degenerates to the two
    // extreme points.
    return {points.front(), points.back()};
  }
  return hull;
}

bool PointInConvexPolygon(const Point2& p, const std::vector<Point2>& hull,
                          double eps) {
  if (hull.empty()) return false;
  if (hull.size() == 1) {
    return std::abs(p.x - hull[0].x) <= eps && std::abs(p.y - hull[0].y) <= eps;
  }
  if (hull.size() == 2) {
    return SegmentDistance(p, hull[0], hull[1]) <= eps;
  }
  // p is inside a CCW polygon iff it is on the left of (or on) every edge
  // hull[j] -> hull[i]; the first edge is the closing one.
  for (size_t i = 0, j = hull.size() - 1; i < hull.size(); j = i++) {
    if (Cross(hull[j], hull[i], p) < -eps) return false;
  }
  return true;
}

double PolygonArea(const std::vector<Point2>& hull) {
  if (hull.size() < 3) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < hull.size(); ++i) {
    const Point2& a = hull[i];
    const Point2& b = hull[(i + 1) % hull.size()];
    s += a.x * b.y - b.x * a.y;
  }
  return 0.5 * s;
}

}  // namespace lte::geom
