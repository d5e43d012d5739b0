// Property-based tests: parameterized sweeps asserting invariants that must
// hold across the configuration space, not just at the defaults.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cluster/kmeans.h"
#include "common/math_util.h"
#include "core/meta_task.h"
#include "core/optimizer_fpfn.h"
#include "geom/convex_hull.h"
#include "svm/svm.h"

namespace lte {
namespace {

// --- k-means invariants over (dimension, k). --------------------------------
class KMeansPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KMeansPropertyTest, Invariants) {
  const int dim = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(dim * 100 + k));
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> p(static_cast<size_t>(dim));
    for (double& x : p) x = rng.Uniform(-5, 5);
    pts.push_back(std::move(p));
  }
  cluster::KMeansOptions opt;
  opt.k = k;
  cluster::KMeansResult res;
  ASSERT_TRUE(cluster::KMeans(pts, opt, &rng, &res).ok());

  // (1) Exactly k centers of the right dimension.
  ASSERT_EQ(res.centers.size(), static_cast<size_t>(k));
  for (const auto& c : res.centers) {
    EXPECT_EQ(c.size(), static_cast<size_t>(dim));
    // (2) Centers lie inside the data bounding box.
    for (double x : c) {
      EXPECT_GE(x, -5.0);
      EXPECT_LE(x, 5.0);
    }
  }
  // (3) Every point is assigned to its nearest center.
  for (size_t i = 0; i < pts.size(); ++i) {
    const auto a = static_cast<size_t>(res.assignments[i]);
    const double d = SquaredDistance(pts[i], res.centers[a]);
    for (const auto& c : res.centers) {
      EXPECT_LE(d, SquaredDistance(pts[i], c) + 1e-9);
    }
  }
  // (4) Inertia equals the sum of assigned squared distances.
  double inertia = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    inertia += SquaredDistance(
        pts[i], res.centers[static_cast<size_t>(res.assignments[i])]);
  }
  EXPECT_NEAR(res.inertia, inertia, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(DimK, KMeansPropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(2, 5, 16)));

// --- Meta-task invariants over (alpha, psi). ---------------------------------
class MetaTaskPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MetaTaskPropertyTest, Invariants) {
  const int alpha = std::get<0>(GetParam());
  const int psi = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(alpha * 31 + psi));
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform()});
  }
  core::MetaTaskGenOptions opt;
  opt.k_u = 30;
  opt.k_s = 10;
  opt.k_q = 20;
  opt.alpha = alpha;
  opt.psi = psi;
  core::MetaTaskGenerator gen(opt);
  ASSERT_TRUE(gen.Init(pts, &rng).ok());

  for (int trial = 0; trial < 5; ++trial) {
    const core::MetaTask task = gen.GenerateTask(&rng);
    // (1) Shapes.
    EXPECT_EQ(task.support_points.size(), 15u);
    EXPECT_EQ(task.query_points.size(), 25u);
    EXPECT_EQ(task.uis_feature.size(), 30u);
    // (2) The UIS has between 1 and alpha convex parts.
    EXPECT_GE(task.uis.parts().size(), 1u);
    EXPECT_LE(task.uis.parts().size(), static_cast<size_t>(alpha));
    // (3) Labels match UIS membership exactly.
    for (size_t i = 0; i < task.support_points.size(); ++i) {
      EXPECT_EQ(task.support_labels[i],
                task.uis.Contains(task.support_points[i]) ? 1.0 : 0.0);
    }
    // (4) Feature bits are binary and only on when some center was positive.
    double bits = 0.0;
    double positives = 0.0;
    for (size_t i = 0; i < 10; ++i) positives += task.support_labels[i];
    for (double b : task.uis_feature) {
      EXPECT_TRUE(b == 0.0 || b == 1.0);
      bits += b;
    }
    if (positives == 0.0) {
      EXPECT_EQ(bits, 0.0);
    }
    if (positives > 0.0) {
      EXPECT_GT(bits, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaPsi, MetaTaskPropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 6),
                                            ::testing::Values(3, 8, 15)));

// --- Convex hull translation invariance. ------------------------------------
class HullTranslationTest : public ::testing::TestWithParam<double> {};

TEST_P(HullTranslationTest, MembershipIsTranslationInvariant) {
  const double shift = GetParam();
  Rng rng(static_cast<uint64_t>(std::abs(shift) * 1000 + 1));
  std::vector<geom::Point2> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Uniform(0, 4), rng.Uniform(0, 4)});
  }
  std::vector<geom::Point2> shifted = pts;
  for (auto& p : shifted) {
    p.x += shift;
    p.y += shift;
  }
  const auto hull = geom::ConvexHull(pts);
  const auto hull_shifted = geom::ConvexHull(shifted);
  EXPECT_EQ(hull.size(), hull_shifted.size());
  for (int i = 0; i < 50; ++i) {
    const geom::Point2 probe = {rng.Uniform(-1, 5), rng.Uniform(-1, 5)};
    const geom::Point2 probe_shifted = {probe.x + shift, probe.y + shift};
    EXPECT_EQ(geom::PointInConvexPolygon(probe, hull),
              geom::PointInConvexPolygon(probe_shifted, hull_shifted))
        << "shift " << shift;
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, HullTranslationTest,
                         ::testing::Values(-100.0, -1.0, 0.5, 7.0, 1000.0));

// --- SVM accuracy over the soft-margin parameter C. -------------------------
class SvmCSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SvmCSweepTest, SeparableDataStaysAccurate) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    x.push_back({rng.Normal(-2, 0.3), rng.Normal(0, 0.3)});
    y.push_back(0.0);
    x.push_back({rng.Normal(2, 0.3), rng.Normal(0, 0.3)});
    y.push_back(1.0);
  }
  svm::SmoOptions smo;
  smo.c = GetParam();
  svm::Svm model;
  ASSERT_TRUE(model.Train(x, y, svm::Kernel{}, smo, &rng).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (model.Predict(x[i]) == y[i]) ++correct;
  }
  EXPECT_GE(correct, static_cast<int>(x.size() * 9 / 10)) << "C=" << smo.c;
}

INSTANTIATE_TEST_SUITE_P(CValues, SvmCSweepTest,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

// --- FP/FN optimizer: inner ⊆ outer across expansion settings. --------------
class FpFnContainmentTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FpFnContainmentTest, InnerSubsetOfOuter) {
  const double outer = std::get<0>(GetParam());
  const double inner = std::get<1>(GetParam());
  Rng rng(17);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform()});
  }
  core::MetaTaskGenOptions gopt;
  gopt.k_u = 30;
  gopt.k_s = 10;
  gopt.k_q = 20;
  core::MetaTaskGenerator gen(gopt);
  ASSERT_TRUE(gen.Init(pts, &rng).ok());

  std::vector<double> labels(10, 0.0);
  labels[static_cast<size_t>(rng.UniformInt(10))] = 1.0;
  labels[static_cast<size_t>(rng.UniformInt(10))] = 1.0;
  core::FpFnOptions opt;
  opt.outer_fraction = outer;
  opt.inner_fraction = inner;
  core::FpFnOptimizer fpfn(gen.context(), labels, opt);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> p = {rng.Uniform(), rng.Uniform()};
    if (fpfn.inner_subregion().Contains(p)) {
      EXPECT_TRUE(fpfn.outer_subregion().Contains(p))
          << "outer=" << outer << " inner=" << inner;
    }
  }
}

// The (outer, inner) pairs of {0.1, 0.3, 0.6} x {0.05, 0.1, 0.3} with
// inner <= outer; an inner expansion wider than the outer one is not a
// meaningful configuration.
INSTANTIATE_TEST_SUITE_P(
    Fractions, FpFnContainmentTest,
    ::testing::Values(std::make_tuple(0.1, 0.05), std::make_tuple(0.1, 0.1),
                      std::make_tuple(0.3, 0.05), std::make_tuple(0.3, 0.1),
                      std::make_tuple(0.3, 0.3), std::make_tuple(0.6, 0.05),
                      std::make_tuple(0.6, 0.1), std::make_tuple(0.6, 0.3)));

}  // namespace
}  // namespace lte
