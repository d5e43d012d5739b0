#include "geom/region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/convex_hull.h"

namespace lte::geom {
namespace {

TEST(ConvexRegionTest, TwoDimensionalHull) {
  const ConvexRegion r = ConvexRegion::HullOf({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_EQ(r.dimension(), 2);
  EXPECT_TRUE(r.Contains({1, 1}));
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_FALSE(r.Contains({3, 1}));
}

TEST(ConvexRegionTest, OneDimensionalInterval) {
  const ConvexRegion r = ConvexRegion::HullOf({{3.0}, {1.0}, {2.0}});
  EXPECT_EQ(r.dimension(), 1);
  EXPECT_DOUBLE_EQ(r.lo(), 1.0);
  EXPECT_DOUBLE_EQ(r.hi(), 3.0);
  EXPECT_TRUE(r.Contains({2.5}));
  EXPECT_TRUE(r.Contains({1.0}));
  EXPECT_FALSE(r.Contains({0.5}));
  EXPECT_FALSE(r.Contains({3.5}));
}

TEST(ConvexRegionTest, EmptyRegion) {
  const ConvexRegion r = ConvexRegion::HullOf({});
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.Contains({0.0}));
}

TEST(ConvexRegionTest, DegenerateSinglePoint2D) {
  const ConvexRegion r = ConvexRegion::HullOf({{1, 1}});
  EXPECT_TRUE(r.Contains({1, 1}));
  EXPECT_FALSE(r.Contains({2, 2}));
}

TEST(RegionTest, UnionOfDisjointParts) {
  Region region;
  region.AddPart(ConvexRegion::HullOf({{0, 0}, {1, 0}, {1, 1}, {0, 1}}));
  region.AddPart(ConvexRegion::HullOf({{5, 5}, {6, 5}, {6, 6}, {5, 6}}));
  EXPECT_EQ(region.parts().size(), 2u);
  EXPECT_TRUE(region.Contains({0.5, 0.5}));
  EXPECT_TRUE(region.Contains({5.5, 5.5}));
  EXPECT_FALSE(region.Contains({3.0, 3.0}));  // Between the parts.
}

TEST(RegionTest, ConcaveShapeFromConvexParts) {
  // An L-shape: two rectangles sharing a corner region.
  Region region;
  region.AddPart(ConvexRegion::HullOf({{0, 0}, {3, 0}, {3, 1}, {0, 1}}));
  region.AddPart(ConvexRegion::HullOf({{0, 0}, {1, 0}, {1, 3}, {0, 3}}));
  EXPECT_TRUE(region.Contains({2.5, 0.5}));
  EXPECT_TRUE(region.Contains({0.5, 2.5}));
  // The concave notch is outside even though its bounding box is covered.
  EXPECT_FALSE(region.Contains({2.5, 2.5}));
}

TEST(RegionTest, EmptyRegion) {
  Region region;
  EXPECT_TRUE(region.empty());
  EXPECT_FALSE(region.Contains({0, 0}));
}

TEST(RegionTest, EmptyPartsAreDropped) {
  Region region;
  region.AddPart(ConvexRegion::HullOf({}));
  EXPECT_TRUE(region.empty());
}

// --- Box certification (Relate) -------------------------------------------

constexpr double kEps = 1e-9;  // Contains' default membership tolerance.

// A random hull of one of five shapes around (cx, cy) at `scale`: a proper
// polygon, a single point, a segment, collinear points (a segment again) or
// a thin sliver triangle.
ConvexRegion RandomHull(Rng* rng, double cx, double cy, double scale) {
  const auto point = [&] {
    return std::vector<double>{cx + scale * rng->Uniform(-1.0, 1.0),
                               cy + scale * rng->Uniform(-1.0, 1.0)};
  };
  std::vector<std::vector<double>> pts;
  switch (rng->UniformInt(5)) {
    case 0:
      for (int64_t i = 0, n = 3 + rng->UniformInt(10); i < n; ++i) {
        pts.push_back(point());
      }
      break;
    case 1:
      pts.push_back(point());
      break;
    case 2:
      pts = {point(), point()};
      break;
    case 3: {
      const std::vector<double> a = point();
      const std::vector<double> b = point();
      for (const double t : {0.0, 0.25, 0.5, 1.0}) {
        pts.push_back({a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])});
      }
      break;
    }
    default: {
      const std::vector<double> a = point();
      const std::vector<double> b = point();
      const double dx = b[0] - a[0];
      const double dy = b[1] - a[1];
      const double lift = rng->Uniform(1e-12, 1e-8);
      pts = {a, b, {a[0] + 0.5 * dx - lift * dy, a[1] + 0.5 * dy + lift * dx}};
      break;
    }
  }
  return ConvexRegion::HullOf(pts);
}

Box BoxAround(double x, double y, double half_x, double half_y) {
  return {x - half_x, x + half_x, y - half_y, y + half_y};
}

// Boxes that hug a hull's boundary at the scale of the tolerance: around
// each vertex, and around points pushed off each edge's midpoint (or, for
// a point or segment hull, off the hull along each axis and along the
// segment's normal) by multiples of the tolerance the membership test
// applies there — inside, on, and outside of it.
void AddAdversarialBoxes(const ConvexRegion& part, std::vector<Box>* out) {
  const std::vector<Point2>& hull = part.hull();
  const double halves[] = {0.0, 1e-13, 0.25 * kEps, 1e-6};
  const double offsets[] = {-2.0, -1.0, -0.5, 0.0, 0.25, 0.5,
                            0.999, 1.0,  1.001, 2.0, 4.0};
  for (const Point2& v : hull) {
    for (const double h : halves) out->push_back(BoxAround(v.x, v.y, h, h));
    for (const double k : offsets) {
      out->push_back(BoxAround(v.x + k * kEps, v.y, 0.0, 0.0));
      out->push_back(BoxAround(v.x, v.y - k * kEps, 0.0, 0.0));
      out->push_back(BoxAround(v.x + k * kEps, v.y + k * kEps, 1e-13, 1e-13));
    }
  }
  if (hull.size() < 2) return;
  for (size_t i = 0, j = hull.size() - 1; i < hull.size(); j = i++) {
    if (hull.size() == 2 && i == 0) continue;  // A segment has one edge.
    const Point2& a = hull[j];
    const Point2& b = hull[i];
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    const double len = std::sqrt(dx * dx + dy * dy);
    if (len == 0.0) continue;
    // Outward unit normal of a CCW edge, and the distance along it at which
    // the cross product reaches -eps (for a segment: the distance eps).
    const double nx = dy / len;
    const double ny = -dx / len;
    const double unit = hull.size() == 2 ? kEps : kEps / len;
    const double mx = 0.5 * (a.x + b.x);
    const double my = 0.5 * (a.y + b.y);
    for (const double k : offsets) {
      const double px = mx + k * unit * nx;
      const double py = my + k * unit * ny;
      for (const double h : halves) {
        out->push_back(BoxAround(px, py, h * std::abs(ny), h * std::abs(nx)));
        out->push_back(BoxAround(px, py, h, h));
      }
      // A box reaching outward from the offset point.
      const double ox = px + 1e-3 * nx;
      const double oy = py + 1e-3 * ny;
      out->push_back({std::min(px, ox), std::max(px, ox), std::min(py, oy),
                      std::max(py, oy)});
    }
  }
}

// Random boxes around (cx, cy): log-uniform sizes from 1e-12 to 10 times
// `scale`, and the cells of a 32x32 grid over a random window.
void AddRandomBoxes(Rng* rng, double cx, double cy, double scale,
                    std::vector<Box>* out) {
  for (int i = 0; i < 24; ++i) {
    const double x = cx + 1.5 * scale * rng->Uniform(-1.0, 1.0);
    const double y = cy + 1.5 * scale * rng->Uniform(-1.0, 1.0);
    const double hx = scale * std::pow(10.0, rng->Uniform(-12.0, 1.0));
    const double hy = scale * std::pow(10.0, rng->Uniform(-12.0, 1.0));
    out->push_back(BoxAround(x, y, hx, hy));
  }
  const double x0 = cx - scale * rng->Uniform(0.5, 2.0);
  const double y0 = cy - scale * rng->Uniform(0.5, 2.0);
  const double step = scale * rng->Uniform(0.5, 4.0) / 32.0;
  for (int i = 0; i < 32; i += 3) {
    for (int j = 0; j < 32; j += 3) {
      out->push_back({x0 + i * step, x0 + (i + 1) * step, y0 + j * step,
                      y0 + (j + 1) * step});
    }
  }
}

// A union's relation to a box, by the rule the settling cells apply: inside
// when some part contains it, outside when every part excludes it.
BoxRelation RelateUnion(const Region& region, const Box& box) {
  bool all_out = true;
  for (const ConvexRegion& part : region.parts()) {
    const BoxRelation r = part.Relate(box);
    if (r == BoxRelation::kInside) return BoxRelation::kInside;
    all_out = all_out && r == BoxRelation::kOutside;
  }
  return all_out ? BoxRelation::kOutside : BoxRelation::kOpen;
}

// Every probe of a certified box must get the certified answer from
// Contains: the four corners, the one-ulp-inward neighbours of the corners,
// the edge midpoints, and 1000 random interior points.
void CheckCertified(const Region& region, const Box& box, BoxRelation relation,
                    Rng* rng) {
  const bool want = relation == BoxRelation::kInside;
  const double xs[] = {box.xlo, box.xhi, std::nextafter(box.xlo, box.xhi),
                       std::nextafter(box.xhi, box.xlo),
                       0.5 * box.xlo + 0.5 * box.xhi};
  const double ys[] = {box.ylo, box.yhi, std::nextafter(box.ylo, box.yhi),
                       std::nextafter(box.yhi, box.ylo),
                       0.5 * box.ylo + 0.5 * box.yhi};
  const auto check = [&](double x, double y) {
    const std::vector<double> p = {std::clamp(x, box.xlo, box.xhi),
                                   std::clamp(y, box.ylo, box.yhi)};
    EXPECT_EQ(region.Contains(p), want)
        << "box [" << box.xlo << ", " << box.xhi << "] x [" << box.ylo
        << ", " << box.yhi << "] certified "
        << (want ? "inside" : "outside") << " but point (" << p[0] << ", "
        << p[1] << ") disagrees";
  };
  for (const double x : xs) {
    for (const double y : ys) check(x, y);
  }
  for (int i = 0; i < 1000; ++i) {
    check(rng->Uniform(box.xlo, box.xhi), rng->Uniform(box.ylo, box.yhi));
  }
}

// Soundness of the certifier: over random regions (unions of polygons,
// points, segments, collinear sets and slivers, at several magnitudes and
// offsets) and random plus boundary-hugging boxes, whatever Relate proves
// inside or outside, Contains agrees with everywhere it is probed.
TEST(RegionRelateTest, CertifiedBoxesAgreeWithContains) {
  Rng rng(2024);
  int64_t certified[2] = {0, 0};  // Outside, inside.
  int64_t degenerate_outside = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double scale = std::pow(10.0, rng.Uniform(-2.0, 3.0));
    const double cx = std::pow(10.0, rng.Uniform(-1.0, 4.0)) *
                      (rng.Bernoulli(0.5) ? 1.0 : -1.0);
    const double cy = rng.Uniform(-1.0, 1.0) * scale;
    Region region;
    std::vector<Box> boxes;
    for (int64_t k = 0, n = 1 + rng.UniformInt(3); k < n; ++k) {
      const ConvexRegion part = RandomHull(
          &rng, cx + scale * rng.Uniform(-1.0, 1.0),
          cy + scale * rng.Uniform(-1.0, 1.0), scale * rng.Uniform(0.1, 1.0));
      AddAdversarialBoxes(part, &boxes);
      region.AddPart(part);
    }
    AddRandomBoxes(&rng, cx, cy, scale, &boxes);
    for (const Box& box : boxes) {
      const BoxRelation relation = RelateUnion(region, box);
      if (relation == BoxRelation::kOpen) continue;
      ++certified[relation == BoxRelation::kInside ? 1 : 0];
      // Outside the union means outside every part, so a point or segment
      // part's exclusion is checked too.
      if (relation == BoxRelation::kOutside &&
          std::any_of(region.parts().begin(), region.parts().end(),
                      [](const ConvexRegion& part) {
                        return part.hull().size() < 3;
                      })) {
        ++degenerate_outside;
      }
      CheckCertified(region, box, relation, &rng);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(certified[0], 1000);
  EXPECT_GT(certified[1], 1000);
  EXPECT_GT(degenerate_outside, 0);
}

// The margins at the boundary: boxes lying within the tolerance outside a
// polygon edge, a point hull or a segment are inside for Contains, so the
// certifier must not exclude them; just beyond the tolerance it does.
TEST(RegionRelateTest, BoxesWithinToleranceAreNotExcluded) {
  const ConvexRegion square =
      ConvexRegion::HullOf({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  const ConvexRegion dot = ConvexRegion::HullOf({{2, 3}});
  const ConvexRegion segment = ConvexRegion::HullOf({{0, 0}, {4, 4}});
  // Right of the square's edge x == 1, 0.25..0.5 eps out.
  const Box near_square{1 + 0.25 * kEps, 1 + 0.5 * kEps, 0.25, 0.75};
  // Right of the point, 0.5 eps out; off the segment's normal, 0.5 eps out.
  const Box near_dot{2 + 0.5 * kEps, 2 + 0.5 * kEps, 3.0, 3.0};
  const double off = 0.5 * kEps / std::sqrt(2.0);
  const Box near_segment{2 + off, 2 + off, 2 - off, 2 - off};
  const struct {
    const ConvexRegion& part;
    Box box;
  } cases[] = {{square, near_square}, {dot, near_dot}, {segment, near_segment}};
  for (const auto& c : cases) {
    EXPECT_TRUE(c.part.Contains(std::vector<double>{c.box.xlo, c.box.ylo}));
    EXPECT_TRUE(c.part.Contains(std::vector<double>{c.box.xhi, c.box.yhi}));
    EXPECT_NE(c.part.Relate(c.box), BoxRelation::kOutside);
  }
  // Twice the tolerance out, every one is excluded.
  EXPECT_EQ(square.Relate({1 + 2 * kEps, 2, 0.25, 0.75}),
            BoxRelation::kOutside);
  EXPECT_EQ(dot.Relate({2 + 2 * kEps, 3, 3, 3}), BoxRelation::kOutside);
  EXPECT_EQ(segment.Relate({5, 6, 4 + 2 * kEps, 4 + 2 * kEps}),
            BoxRelation::kOutside);
  // A box inside the square, and the square's own closure, are inside;
  // points and segments contain no box.
  EXPECT_EQ(square.Relate({0.25, 0.75, 0.25, 0.75}), BoxRelation::kInside);
  EXPECT_EQ(square.Relate({0, 1, 0, 1}), BoxRelation::kInside);
  EXPECT_EQ(dot.Relate({2, 2, 3, 3}), BoxRelation::kOpen);
  EXPECT_EQ(segment.Relate({1, 1, 1, 1}), BoxRelation::kOpen);
}

}  // namespace
}  // namespace lte::geom
