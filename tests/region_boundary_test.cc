// Boundary-adversarial differential test for region-first Meta* scoring. The
// block scan settles every row whose FP/FN outer and inner subregions agree
// before it encodes or forwards anything (DESIGN.md §2b); that is exact only
// if the region test it runs is the very one `PredictRow` runs. This suite
// scans tables seeded where the two tests could part ways: hull vertices
// (the C^s/C^u centers), edge midpoints, and points just inside and outside
// every hull edge at the 1e-9 membership tolerance, over proper polygons,
// collinear (segment) hulls and single-point hulls, plus a session whose
// center labels are all 0 (no subregions at all). Every scan path — direct
// and through the coalesced scheduler, at 1 and 4 lanes, across a segment
// seam — must reproduce the per-row oracle byte for byte. Runs under the
// TSan CI job.
//
// The scans settle most rows from the FP/FN optimizer's proven grid cells
// (`FpFnOptimizer::Settle`) and test only the rest against the hulls. The
// table therefore also holds rows exactly on the settling grid's lines and
// cell corners and one ulp to either side, rows outside the Pretrain value
// box on both sides of the segment seam, a subspace where whole hulls fit
// in one cell, and one whose second column is constant (a zero-height box).
// The oracle never reads the cells, and every scan's `rows_located` count is
// checked exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/block_scan.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "core/optimizer_fpfn.h"
#include "fpfn_reference_cells.h"
#include "geom/convex_hull.h"
#include "geom/region.h"
#include "serving/coalesced_scan_scheduler.h"

namespace lte::core {
namespace {

constexpr double kTolerance = 1e-9;  // geom::Region's membership epsilon.

ExplorerOptions SmallExplorerOptions() {
  ExplorerOptions opt;
  opt.task_gen.k_u = 30;
  opt.task_gen.k_s = 10;
  opt.task_gen.k_q = 30;
  opt.task_gen.delta = 5;
  opt.task_gen.alpha = 2;
  opt.task_gen.psi = 8;
  opt.learner.embedding_size = 12;
  opt.learner.clf_hidden = {12};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 25;
  opt.trainer.epochs = 3;
  opt.trainer.task_batch_size = 10;
  opt.trainer.local_steps = 6;
  opt.trainer.local_lr = 0.2;
  opt.trainer.global_lr = 0.1;
  opt.online_steps = 25;
  opt.online_lr = 0.2;
  opt.encoder.num_gmm_components = 3;
  opt.encoder.num_jenks_intervals = 3;
  return opt;
}

const std::vector<std::string> kColumns = {"a0", "a1", "a2", "a3", "a4",
                                           "a5", "a6", "a7", "a8", "a9"};

// Pretraining table, five 2-D subspaces:
//  {0,1} four Gaussian blobs — proper polygon hulls;
//  {2,3} points on the diagonal y == x — every center is exactly on it, so
//        every hull is a segment;
//  {4,5} a 3x3 grid of dyadic values — k-means centers coincide with grid
//        points exactly, so groups of coinciding centers give single-point
//        hulls;
//  {6,7} every row but two uniform over [1.0, 1.2]^2, with the two at
//        (0, 0) and (10, 10) — the value box is [0, 10]^2, so the rows and
//        the hulls of their centers fit inside one settling cell;
//  {8,9} uniform x against a constant y — a zero-height value box.
data::Table PretrainTable() {
  Rng rng(31);
  data::Table table(kColumns);
  const double blobs[4][2] = {{2, 2}, {7, 3}, {4, 8}, {8, 8}};
  for (int64_t i = 0; i < 3000; ++i) {
    const double* c = blobs[rng.UniformInt(4)];
    const double d = rng.Uniform(0.0, 10.0);
    const double grid[3] = {0.0, 0.5, 1.0};
    const double corner = i == 0 ? 0.0 : 10.0;
    const std::vector<double> row = {
        rng.Normal(c[0], 1.0),
        rng.Normal(c[1], 1.0),
        d,
        d,
        grid[rng.UniformInt(3)],
        grid[rng.UniformInt(3)],
        i < 2 ? corner : rng.Uniform(1.0, 1.2),
        i < 2 ? corner : rng.Uniform(1.0, 1.2),
        rng.Uniform(0.0, 10.0),
        3.0};
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

using Point = std::vector<double>;

// Adversarial points around one convex part: its vertices, and around each
// edge the midpoint plus offsets along the edge normal of ±1e-9 (a distance)
// and of ±1e-9/|edge| and ±2e-9/|edge| (the cross-product tolerance the
// membership test applies, and twice it). Single-point and segment hulls get
// the same offsets along both axes and past the segment ends.
void AddPartProbes(const geom::ConvexRegion& part, std::vector<Point>* out) {
  const std::vector<geom::Point2>& hull = part.hull();
  const auto add = [out](double x, double y) { out->push_back({x, y}); };
  for (const geom::Point2& v : hull) {
    add(v.x, v.y);
    for (const double d : {kTolerance, 2 * kTolerance}) {
      add(v.x + d, v.y);
      add(v.x - d, v.y);
      add(v.x, v.y + d);
      add(v.x, v.y - d);
    }
  }
  if (hull.size() < 2) return;
  for (size_t i = 0, j = hull.size() - 1; i < hull.size(); j = i++) {
    if (hull.size() == 2 && i == 0) continue;  // A segment has one edge.
    const geom::Point2& a = hull[j];
    const geom::Point2& b = hull[i];
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    const double len = std::sqrt(dx * dx + dy * dy);
    if (len == 0.0) continue;
    const double nx = dy / len;  // Outward for a CCW hull.
    const double ny = -dx / len;
    const double mx = 0.5 * (a.x + b.x);
    const double my = 0.5 * (a.y + b.y);
    add(mx, my);
    for (const double d :
         {kTolerance, kTolerance / len, 2 * kTolerance / len}) {
      add(mx + d * nx, my + d * ny);
      add(mx - d * nx, my - d * ny);
      // Near the endpoints too, where neighbouring edges meet.
      add(a.x + 0.01 * dx + d * nx, a.y + 0.01 * dy + d * ny);
      add(b.x - 0.01 * dx - d * nx, b.y - 0.01 * dy - d * ny);
    }
    // Just past both ends along the edge direction.
    add(b.x + kTolerance * dx / len, b.y + kTolerance * dy / len);
    add(a.x - kTolerance * dx / len, a.y - kTolerance * dy / len);
  }
}

class RegionBoundaryTest : public ::testing::Test {
 protected:
  // One pretrain and one adversarial table for the whole suite: every test
  // attaches read-only sessions.
  static void SetUpTestSuite() {
    const data::Table pretrain = PretrainTable();
    subspaces_ = new std::vector<data::Subspace>{
        data::Subspace{{0, 1}}, data::Subspace{{2, 3}}, data::Subspace{{4, 5}},
        data::Subspace{{6, 7}}, data::Subspace{{8, 9}}};
    model_ = new std::shared_ptr<ExplorationModel>(
        std::make_shared<ExplorationModel>(SmallExplorerOptions()));
    Rng rng(37);
    ASSERT_TRUE(
        (*model_)->Pretrain(pretrain, *subspaces_, /*train_meta=*/true, &rng)
            .ok());
    labelings_ = new std::vector<std::vector<std::vector<double>>>{
        Labels(Labeling::kThreshold), Labels(Labeling::kAlternate),
        Labels(Labeling::kNoPositiveCenters)};
    table_ = new data::Table(AdversarialTable());
  }

  static void TearDownTestSuite() {
    delete table_;
    delete labelings_;
    delete model_;
    delete subspaces_;
  }

  enum class Labeling { kThreshold, kAlternate, kNoPositiveCenters };

  static const ExplorationModel& model() { return **model_; }
  static int64_t num_subspaces() {
    return static_cast<int64_t>(subspaces_->size());
  }
  static int64_t k_s(int64_t s) {
    return model().generator(s)->options().k_s;
  }

  // Per subspace: the first coordinate below which kThreshold labels a
  // tuple interesting.
  static constexpr double kMidpoints[5] = {5.0, 5.0, 0.5, 1.1, 5.0};

  // Start labels per subspace: interesting iff the tuple's first coordinate
  // is below the subspace's midpoint (kThreshold), every other tuple
  // (kAlternate), or every tuple but the k_s centers (kNoPositiveCenters:
  // no subregions, yet a classifier that still finds matches).
  static std::vector<std::vector<double>> Labels(Labeling labeling) {
    std::vector<std::vector<double>> labels(subspaces_->size());
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      const std::vector<Point>& tuples = *model().InitialTuples(s);
      for (size_t i = 0; i < tuples.size(); ++i) {
        double label = tuples[i][0] <= kMidpoints[s] ? 1.0 : 0.0;
        if (labeling == Labeling::kAlternate) label = i % 2 == 0 ? 1.0 : 0.0;
        if (labeling == Labeling::kNoPositiveCenters) {
          label = static_cast<int64_t>(i) < k_s(s) ? 0.0 : 1.0;
        }
        labels[static_cast<size_t>(s)].push_back(label);
      }
    }
    return labels;
  }

  // The FP/FN optimizer a Meta* session builds for `labels` in subspace s:
  // a pure function of the clustering context and the center labels. With
  // `cells`, it also builds the settling cells over the subspace's value
  // box, as the session does; without, Settle always defers to Locate.
  static FpFnOptimizer Optimizer(const std::vector<std::vector<double>>& labels,
                                 int64_t s, bool cells = false) {
    const std::vector<double>& all = labels[static_cast<size_t>(s)];
    const std::vector<double> centers(all.begin(), all.begin() + k_s(s));
    return FpFnOptimizer(
        model().generator(s)->context(), centers, model().options().fpfn,
        cells ? model().ValueBox(s) : std::optional<geom::Box>());
  }

  // The settling grid's line positions over [lo, hi], as the optimizer
  // builds its cells: lo + c * (hi - lo) / G for c = 0..G.
  static std::vector<double> GridLines(double lo, double hi) {
    const int64_t g = FpFnOptimizer::kSettleGrid;
    const double step = (hi - lo) / static_cast<double>(g);
    std::vector<double> lines;
    for (int64_t c = 0; c <= g; ++c) {
      lines.push_back(lo + static_cast<double>(c) * step);
    }
    return lines;
  }

  // v and its neighbours one ulp below and above.
  static std::vector<double> Ulps(double v) {
    return {std::nextafter(v, -INFINITY), v, std::nextafter(v, INFINITY)};
  }

  // Rows on the settling grid of a subspace: every cell corner of every
  // other grid line, one ulp to either side of it along each axis, and the
  // midpoints of the cell edges along every line.
  static std::vector<Point> GridProbes(int64_t s) {
    const geom::Box box = *model().ValueBox(s);
    const std::vector<double> xs = GridLines(box.xlo, box.xhi);
    const std::vector<double> ys = GridLines(box.ylo, box.yhi);
    std::vector<Point> out;
    for (size_t i = 0; i < xs.size(); i += 2) {
      for (size_t j = 0; j < ys.size(); j += 2) {
        for (const double x : Ulps(xs[i])) out.push_back({x, ys[j]});
        for (const double y : Ulps(ys[j])) out.push_back({xs[i], y});
      }
    }
    for (size_t i = 0; i < xs.size(); ++i) {
      for (size_t j = 0; j + 1 < ys.size(); j += 4) {
        const double mid = 0.5 * (ys[j] + ys[j + 1]);
        out.push_back({xs[i], mid});
        out.push_back({0.5 * (xs[j] + xs[j + 1]), ys[i]});
      }
    }
    return out;
  }

  // Rows outside a subspace's Pretrain value box: one ulp, 1e-9 and 1.0
  // past each side, and past two sides at once.
  static std::vector<Point> OutsideProbes(int64_t s) {
    const geom::Box box = *model().ValueBox(s);
    const double mx = 0.5 * (box.xlo + box.xhi);
    const double my = 0.5 * (box.ylo + box.yhi);
    std::vector<Point> out;
    const auto below = [](double v, double d) {
      return d == 0.0 ? std::nextafter(v, -INFINITY) : v - d;
    };
    const auto above = [](double v, double d) {
      return d == 0.0 ? std::nextafter(v, INFINITY) : v + d;
    };
    for (const double d : {0.0, kTolerance, 1.0}) {
      out.push_back({below(box.xlo, d), my});
      out.push_back({above(box.xhi, d), my});
      out.push_back({mx, below(box.ylo, d)});
      out.push_back({mx, above(box.yhi, d)});
      out.push_back({below(box.xlo, d), below(box.ylo, d)});
      out.push_back({above(box.xhi, d), above(box.yhi, d)});
    }
    return out;
  }

  // Per subspace: every C^s and C^u center plus the probes around every part
  // of every labeling's outer and inner subregions.
  static std::vector<std::vector<Point>> Probes() {
    std::vector<std::vector<Point>> probes(subspaces_->size());
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      std::vector<Point>& out = probes[static_cast<size_t>(s)];
      const SubspaceContext& ctx = model().generator(s)->context();
      out.insert(out.end(), ctx.centers_s.begin(), ctx.centers_s.end());
      out.insert(out.end(), ctx.centers_u.begin(), ctx.centers_u.end());
      for (const auto& labels : *labelings_) {
        const FpFnOptimizer opt = Optimizer(labels, s);
        for (const geom::Region* region :
             {&opt.outer_subregion(), &opt.inner_subregion()}) {
          for (const geom::ConvexRegion& part : region->parts()) {
            AddPartProbes(part, &out);
          }
        }
      }
    }
    return probes;
  }

  // Rows put each subspace's probes behind anchors in the other subspaces,
  // so the conjunction reaches every subspace: the anchors are the C^s
  // centers, which the kThreshold/kAlternate sessions' inner subregions
  // contain whenever that center is labelled positive. Anchor 0 is a center
  // kThreshold labels positive in every other subspace, anchor 1 one that
  // kAlternate does (an even index), anchor 2 any center.
  static void AddAnchoredRows(int64_t s, const std::vector<Point>& own,
                              size_t anchors, std::vector<Point>* rows) {
    for (size_t j = 0; j < own.size(); ++j) {
      for (size_t anchor = 0; anchor < anchors; ++anchor) {
        Point row;
        for (int64_t t = 0; t < num_subspaces(); ++t) {
          const std::vector<Point>& centers =
              model().generator(t)->context().centers_s;
          std::vector<size_t> picks;
          for (size_t c = 0; c < centers.size(); ++c) {
            if ((anchor == 0 && centers[c][0] <= kMidpoints[t]) ||
                (anchor == 1 && c % 2 == 0) || anchor == 2) {
              picks.push_back(c);
            }
          }
          const Point& p =
              t == s ? own[j] : centers[picks[(j + 3 * anchor) % picks.size()]];
          row.insert(row.end(), p.begin(), p.end());
        }
        rows->push_back(std::move(row));
      }
    }
  }

  // The hull probes (three anchors each) and grid probes (one), then the
  // rows outside the value box. The last fifth of the hull and grid rows
  // arrive through AppendRows, so every scan also crosses a segment seam;
  // the outside rows straddle it, half on each side.
  static data::Table AdversarialTable() {
    const std::vector<std::vector<Point>> probes = Probes();
    std::vector<Point> rows;
    std::vector<Point> outside;
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      AddAnchoredRows(s, probes[static_cast<size_t>(s)], 3, &rows);
      AddAnchoredRows(s, GridProbes(s), 1, &rows);
      AddAnchoredRows(s, OutsideProbes(s), 3, &outside);
    }
    const auto base =
        static_cast<std::ptrdiff_t>(rows.size() - rows.size() / 5);
    const auto half = static_cast<std::ptrdiff_t>(outside.size() / 2);
    std::vector<Point> first(rows.begin(), rows.begin() + base);
    first.insert(first.end(), outside.begin(), outside.begin() + half);
    std::vector<Point> appended(outside.begin() + half, outside.end());
    appended.insert(appended.end(), rows.begin() + base, rows.end());
    data::Table table(kColumns);
    seam_ = static_cast<int64_t>(first.size());
    for (const Point& row : first) EXPECT_TRUE(table.AppendRow(row).ok());
    EXPECT_TRUE(table.AppendRows(appended).ok());
    return table;
  }

  // The scanned users: Meta* over the two labelings with subregions, Meta*
  // with no positive center label, and Meta (no subregions by variant).
  struct User {
    Labeling labeling;
    Variant variant;
  };
  static constexpr User kUsers[] = {
      {Labeling::kThreshold, Variant::kMetaStar},
      {Labeling::kAlternate, Variant::kMetaStar},
      {Labeling::kNoPositiveCenters, Variant::kMetaStar},
      {Labeling::kThreshold, Variant::kMeta}};
  static constexpr size_t kNumUsers = std::size(kUsers);

  static const std::vector<std::vector<double>>& LabelsOf(size_t u) {
    return (*labelings_)[static_cast<size_t>(kUsers[u].labeling)];
  }

  static bool HasSubregions(size_t u) {
    return kUsers[u].variant == Variant::kMetaStar &&
           kUsers[u].labeling != Labeling::kNoPositiveCenters;
  }

  static std::unique_ptr<ExplorationSession> Session(size_t u,
                                                     int64_t threads) {
    auto session = std::make_unique<ExplorationSession>(*model_, threads);
    Rng rng(41 + u);
    EXPECT_TRUE(
        session->StartExploration(LabelsOf(u), kUsers[u].variant, &rng).ok());
    return session;
  }

  // The oracle: one PredictRow per materialized row.
  static std::vector<double> Oracle(const ExplorationSession& session) {
    std::vector<double> out;
    for (int64_t r = 0; r < table_->num_rows(); ++r) {
      out.push_back(session.PredictRow(table_->Row(r)).value_or(-1.0));
    }
    return out;
  }

  static std::vector<int64_t> Matches(const std::vector<double>& verdicts,
                                      int64_t limit) {
    std::vector<int64_t> out;
    for (size_t r = 0; r < verdicts.size(); ++r) {
      if (limit >= 0 && static_cast<int64_t>(out.size()) == limit) break;
      if (verdicts[r] == 1.0) out.push_back(static_cast<int64_t>(r));
    }
    return out;
  }

  // A shuffled selection with duplicates (a lone prediction's rows may come
  // in any order).
  static std::vector<int64_t> ScrambledRows() {
    std::vector<int64_t> rows;
    for (int64_t r = table_->num_rows() - 1; r >= 0; r -= 3) rows.push_back(r);
    for (int64_t r = 0; r < table_->num_rows(); r += 11) rows.push_back(r);
    return rows;
  }

  static std::vector<double> Select(const std::vector<double>& verdicts,
                                    const std::vector<int64_t>& rows) {
    std::vector<double> out;
    for (const int64_t r : rows) {
      out.push_back(verdicts[static_cast<size_t>(r)]);
    }
    return out;
  }

  static std::vector<data::Subspace>* subspaces_;
  static std::shared_ptr<ExplorationModel>* model_;
  static std::vector<std::vector<std::vector<double>>>* labelings_;
  static data::Table* table_;
  static int64_t seam_;  // First row id of the appended segment.
};

std::vector<data::Subspace>* RegionBoundaryTest::subspaces_ = nullptr;
std::shared_ptr<ExplorationModel>* RegionBoundaryTest::model_ = nullptr;
std::vector<std::vector<std::vector<double>>>* RegionBoundaryTest::labelings_ =
    nullptr;
data::Table* RegionBoundaryTest::table_ = nullptr;
int64_t RegionBoundaryTest::seam_ = 0;

const int64_t kLimits[] = {-1, 1, 20};

// The fixture reaches the shapes it claims: segment and single-point hulls
// (the geom SegmentDistance and point paths) besides proper polygons, and
// table rows in all four (outer, inner) membership combinations — including
// inside-inner-but-outside-outer, where the rule must not assume inner ⊆
// outer.
TEST_F(RegionBoundaryTest, FixtureCoversDegenerateHullsAndAllMemberships) {
  int64_t hull_sizes[3] = {0, 0, 0};  // 1 vertex, 2 vertices, >= 3.
  int64_t memberships[2][2] = {{0, 0}, {0, 0}};
  for (size_t u = 0; u < kNumUsers; ++u) {
    if (!HasSubregions(u)) continue;
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      const FpFnOptimizer opt = Optimizer(LabelsOf(u), s);
      ASSERT_TRUE(opt.has_positive_centers());
      for (const geom::Region* region :
           {&opt.outer_subregion(), &opt.inner_subregion()}) {
        for (const geom::ConvexRegion& part : region->parts()) {
          ++hull_sizes[std::min<size_t>(part.hull().size(), 3) - 1];
        }
      }
      const std::vector<int64_t>& attrs = (*subspaces_)[static_cast<size_t>(s)]
                                              .attribute_indices;
      for (int64_t r = 0; r < table_->num_rows(); ++r) {
        const FpFnOptimizer::Membership m =
            opt.Locate(table_->RowProjected(r, attrs));
        ++memberships[m.outer][m.inner];
      }
    }
  }
  EXPECT_GT(hull_sizes[0], 0) << "no single-point hull";
  EXPECT_GT(hull_sizes[1], 0) << "no segment hull";
  EXPECT_GT(hull_sizes[2], 0) << "no polygon hull";
  EXPECT_GT(memberships[0][0], 0);
  EXPECT_GT(memberships[1][1], 0);
  EXPECT_GT(memberships[1][0], 0);
  EXPECT_GT(memberships[0][1], 0) << "no row inside inner but outside outer";
  for (int64_t s = 0; s < num_subspaces(); ++s) {
    EXPECT_FALSE(Optimizer(LabelsOf(2), s).has_positive_centers());
  }
}

// The settling-grid shapes: a polygon hull that fits inside one grid cell,
// a value box of zero height, and rows outside the value box on both sides
// of the segment seam.
TEST_F(RegionBoundaryTest, FixtureCoversSettlingGridShapes) {
  int64_t polygons_in_one_cell = 0;
  for (size_t u = 0; u < kNumUsers; ++u) {
    if (!HasSubregions(u)) continue;
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      const geom::Box box = *model().ValueBox(s);
      const std::vector<double> xs = GridLines(box.xlo, box.xhi);
      const std::vector<double> ys = GridLines(box.ylo, box.yhi);
      const FpFnOptimizer opt = Optimizer(LabelsOf(u), s);
      for (const geom::Region* region :
           {&opt.outer_subregion(), &opt.inner_subregion()}) {
        for (const geom::ConvexRegion& part : region->parts()) {
          if (part.hull().size() < 3) continue;
          const auto [xmin, xmax] = std::minmax_element(
              part.hull().begin(), part.hull().end(),
              [](const geom::Point2& a, const geom::Point2& b) {
                return a.x < b.x;
              });
          const auto [ymin, ymax] = std::minmax_element(
              part.hull().begin(), part.hull().end(),
              [](const geom::Point2& a, const geom::Point2& b) {
                return a.y < b.y;
              });
          for (size_t c = 0; c + 1 < xs.size(); ++c) {
            for (size_t d = 0; d + 1 < ys.size(); ++d) {
              if (xs[c] < xmin->x && xmax->x < xs[c + 1] && ys[d] < ymin->y &&
                  ymax->y < ys[d + 1]) {
                ++polygons_in_one_cell;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(polygons_in_one_cell, 0) << "no polygon hull inside one cell";

  const geom::Box flat = *model().ValueBox(4);
  EXPECT_EQ(flat.ylo, flat.yhi) << "the constant column's box has height";
  EXPECT_LT(flat.xlo, flat.xhi);

  // Rows outside the value box, before and after the seam.
  ASSERT_EQ(table_->num_segments(), 1);
  int64_t outside[2] = {0, 0};
  for (int64_t r = 0; r < table_->num_rows(); ++r) {
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      const geom::Box box = *model().ValueBox(s);
      const Point p = table_->RowProjected(
          r, (*subspaces_)[static_cast<size_t>(s)].attribute_indices);
      if (p[0] < box.xlo || p[0] > box.xhi || p[1] < box.ylo ||
          p[1] > box.yhi) {
        ++outside[r < seam_ ? 0 : 1];
      }
    }
  }
  EXPECT_GT(outside[0], 0) << "no row outside the box before the seam";
  EXPECT_GT(outside[1], 0) << "no row outside the box after the seam";
}

// Every row a session's grid cell settles gets exactly the membership the
// hull tests give it, in every subspace and for every labeling with
// subregions; and the cells do settle rows here, in every subspace, though
// never all of them.
TEST_F(RegionBoundaryTest, SettledCellsAgreeWithLocate) {
  for (int64_t s = 0; s < num_subspaces(); ++s) {
    const std::vector<int64_t>& attrs =
        (*subspaces_)[static_cast<size_t>(s)].attribute_indices;
    int64_t settled = 0;
    int64_t located = 0;
    for (size_t u = 0; u < kNumUsers; ++u) {
      if (!HasSubregions(u)) continue;
      SCOPED_TRACE(testing::Message() << "user=" << u << " s=" << s);
      const FpFnOptimizer opt = Optimizer(LabelsOf(u), s, /*cells=*/true);
      for (int64_t r = 0; r < table_->num_rows(); ++r) {
        const Point p = table_->RowProjected(r, attrs);
        FpFnOptimizer::Membership m;
        if (!opt.Settle(p, &m)) {
          ++located;
          continue;
        }
        ++settled;
        const FpFnOptimizer::Membership direct = opt.Locate(p);
        ASSERT_EQ(m.outer, direct.outer) << "row " << r;
        ASSERT_EQ(m.inner, direct.inner) << "row " << r;
      }
    }
    EXPECT_GT(settled, 0) << "s=" << s;
    EXPECT_GT(located, 0) << "s=" << s;
  }
}

// Direct scans: PredictRows (every row, and a scrambled selection with
// duplicates) and RetrieveMatches at limits -1, 1, 20 equal the oracle at
// 1 and 4 lanes, and the region step really skips forwards on the Meta*
// sessions with subregions.
TEST_F(RegionBoundaryTest, DirectScansMatchOracle) {
  std::vector<int64_t> all(static_cast<size_t>(table_->num_rows()));
  std::iota(all.begin(), all.end(), int64_t{0});
  const std::vector<int64_t> scrambled = ScrambledRows();
  for (size_t u = 0; u < kNumUsers; ++u) {
    const std::vector<double> oracle = Oracle(*Session(u, 1));
    const double ones = std::accumulate(oracle.begin(), oracle.end(), 0.0);
    // The all-zero-center session finds nothing on this table; it is here
    // for the no-subregion path, which the rows_forwarded count pins.
    if (kUsers[u].labeling != Labeling::kNoPositiveCenters) {
      EXPECT_GT(ones, 0.0) << "user=" << u;
    }
    EXPECT_LT(ones, static_cast<double>(oracle.size())) << "user=" << u;
    for (const int64_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "user=" << u
                                      << " threads=" << threads);
      const auto session = Session(u, threads);
      std::vector<double> predictions;
      ASSERT_TRUE(session->PredictRows(*table_, all, &predictions).ok());
      EXPECT_EQ(predictions, oracle);
      ASSERT_TRUE(session->PredictRows(*table_, scrambled, &predictions).ok());
      EXPECT_EQ(predictions, Select(oracle, scrambled));
      for (const int64_t limit : kLimits) {
        std::vector<int64_t> matches;
        ASSERT_TRUE(session->RetrieveMatches(*table_, limit, &matches).ok());
        EXPECT_EQ(matches, Matches(oracle, limit)) << "limit=" << limit;
      }
    }
    // rows_forwarded is exact: per row, each subspace the conjunction
    // reaches forwards it unless its subregions decide it. Without
    // subregions that is every (row, reached subspace) pair. rows_located
    // is exact too: the reached pairs whose grid cell proves nothing, with
    // subregions, and none without. The cells come from the union
    // certifier (fpfn_reference_cells.h), not from the optimizer under
    // test, so a cell left open that should be proven shows here.
    const auto session = Session(u, 1);
    std::vector<FpFnOptimizer> optimizers;
    std::vector<std::vector<uint8_t>> cells;
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      optimizers.push_back(Optimizer(LabelsOf(u), s));
      cells.push_back(
          reference::ReferenceCells(optimizers.back(), model().ValueBox(s)));
    }
    int64_t reached = 0;
    int64_t band = 0;
    int64_t located = 0;
    for (int64_t r = 0; r < table_->num_rows(); ++r) {
      for (int64_t s = 0; s < num_subspaces(); ++s) {
        const Point p = table_->RowProjected(
            r, (*subspaces_)[static_cast<size_t>(s)].attribute_indices);
        const FpFnOptimizer& opt = optimizers[static_cast<size_t>(s)];
        ++reached;
        if (!HasSubregions(u) || !opt.Locate(p).decided()) ++band;
        if (HasSubregions(u) &&
            !reference::ReferenceSettles(cells[static_cast<size_t>(s)],
                                         *model().ValueBox(s), p)) {
          ++located;
        }
        if (session->PredictSubspace(s, p) != 1.0) break;
      }
    }
    for (const int64_t threads : {1, 4}) {
      std::vector<int64_t> matches;
      ScanSubscriber sub;
      sub.session = session.get();
      sub.matches = &matches;
      const BlockScanStats stats = RunBlockScan(*table_, {&sub, 1}, threads);
      EXPECT_EQ(matches, Matches(oracle, -1));
      EXPECT_EQ(stats.rows_forwarded, band) << "user=" << u;
      EXPECT_EQ(stats.rows_located, located) << "user=" << u;
    }
    if (HasSubregions(u)) {
      EXPECT_LT(band, reached) << "user=" << u;
      EXPECT_GT(located, 0) << "user=" << u;
      EXPECT_LT(located, reached) << "user=" << u;
    } else {
      EXPECT_EQ(band, reached) << "user=" << u;
      EXPECT_EQ(located, 0) << "user=" << u;
    }
  }
}

// The tool hook scores a pre-encoded block by the same rule: per subspace,
// every row's verdict equals PredictSubspace on its raw point.
TEST_F(RegionBoundaryTest, ScoreEncodedBlockMatchesPredictSubspace) {
  std::vector<int64_t> all(static_cast<size_t>(table_->num_rows()));
  std::iota(all.begin(), all.end(), int64_t{0});
  for (size_t u = 0; u < kNumUsers; ++u) {
    const auto session = Session(u, 1);
    for (int64_t s = 0; s < num_subspaces(); ++s) {
      SCOPED_TRACE(testing::Message() << "user=" << u << " s=" << s);
      const std::vector<int64_t>& attrs =
          (*subspaces_)[static_cast<size_t>(s)].attribute_indices;
      std::vector<data::ColumnView> columns;
      for (const int64_t a : attrs) columns.push_back(table_->View(a));
      std::vector<double> encoded;
      model().encoder().EncodeGatheredInto(columns, attrs, all, &encoded);
      std::vector<double> out(all.size());
      std::vector<double> scratch;
      TaskModel::BatchScratch batch;
      session->ScoreEncodedBlock(s, encoded, all, columns, &batch, &scratch,
                                 out);
      for (const int64_t r : all) {
        ASSERT_EQ(out[static_cast<size_t>(r)],
                  session->PredictSubspace(s, table_->RowProjected(r, attrs))
                      .value_or(-1.0))
            << "row " << r;
      }
    }
  }
}

// Through the coalesced scheduler: every user's predictions and
// retrievals (limits -1, 1, 20) submitted concurrently into shared passes,
// at 1 and 4 lanes, equal the oracle. CoalescedScanStats sums the
// subscribers' forward counts. In one pass over every user, each Meta*
// subscriber with subregions forwards a strict subset of the shared
// encoded rows, by index, and still gets the oracle's verdicts.
TEST_F(RegionBoundaryTest, CoalescedScansMatchOracle) {
  std::vector<int64_t> all(static_cast<size_t>(table_->num_rows()));
  std::iota(all.begin(), all.end(), int64_t{0});
  const std::vector<int64_t> scrambled = ScrambledRows();
  std::vector<std::unique_ptr<ExplorationSession>> sessions;
  std::vector<std::vector<double>> oracles;
  for (size_t u = 0; u < kNumUsers; ++u) {
    sessions.push_back(Session(u, 1));
    oracles.push_back(Oracle(*sessions.back()));
  }

  for (const int64_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "scheduler threads=" << threads);
    serving::CoalescedScanOptions options;
    options.num_threads = threads;
    options.max_batch_requests = 64;
    options.flush_deadline_micros = 2000;
    serving::CoalescedScanScheduler scheduler(*model_, table_, options);

    const size_t n_limits = std::size(kLimits);
    std::vector<std::vector<double>> full(kNumUsers);
    std::vector<std::vector<double>> partial(kNumUsers);
    std::vector<std::vector<std::vector<int64_t>>> matches(
        kNumUsers, std::vector<std::vector<int64_t>>(n_limits));
    std::vector<std::thread> submitters;
    for (size_t u = 0; u < kNumUsers; ++u) {
      const ExplorationSession& session = *sessions[u];
      submitters.emplace_back([&, u] {
        EXPECT_TRUE(scheduler.PredictRows(session, all, &full[u]).ok());
      });
      submitters.emplace_back([&, u] {
        EXPECT_TRUE(
            scheduler.PredictRows(session, scrambled, &partial[u]).ok());
      });
      for (size_t i = 0; i < n_limits; ++i) {
        submitters.emplace_back([&, u, i] {
          EXPECT_TRUE(
              scheduler.RetrieveMatches(session, kLimits[i], &matches[u][i])
                  .ok());
        });
      }
    }
    for (std::thread& t : submitters) t.join();

    for (size_t u = 0; u < kNumUsers; ++u) {
      SCOPED_TRACE(testing::Message() << "user=" << u);
      EXPECT_EQ(full[u], oracles[u]);
      EXPECT_EQ(partial[u], Select(oracles[u], scrambled));
      for (size_t i = 0; i < n_limits; ++i) {
        EXPECT_EQ(matches[u][i], Matches(oracles[u], kLimits[i]))
            << "limit=" << kLimits[i];
      }
    }
  }

  // A subscriber's band rows and hull-tested rows depend only on its own
  // alive rows, so the scheduler's forward and hull-test counts for
  // full-table predictions are the sums of the standalone counts, whatever
  // the pass composition.
  int64_t standalone = 0;
  int64_t standalone_located = 0;
  std::vector<int64_t> forwarded(kNumUsers);
  for (size_t u = 0; u < kNumUsers; ++u) {
    std::vector<double> predictions(all.size(), 0.0);
    ScanSubscriber sub;
    sub.session = sessions[u].get();
    sub.rows = all;
    sub.predictions = predictions;
    const BlockScanStats alone = RunBlockScan(*table_, {&sub, 1}, 1);
    forwarded[u] = alone.rows_forwarded;
    standalone += forwarded[u];
    standalone_located += alone.rows_located;
  }
  EXPECT_GT(standalone_located, 0);

  // One pass with every user subscribed: the Meta session (no subregions)
  // forwards all its alive rows, so the shared encoded block holds rows
  // that each subregion subscriber's band leaves out, and those subscribers
  // forward their band rows by index into it.
  for (const int64_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "one pass, threads=" << threads);
    std::vector<std::vector<double>> predictions(
        kNumUsers, std::vector<double>(all.size(), 0.0));
    std::vector<ScanSubscriber> subs(kNumUsers);
    for (size_t u = 0; u < kNumUsers; ++u) {
      subs[u].session = sessions[u].get();
      subs[u].rows = all;
      subs[u].predictions = predictions[u];
    }
    const BlockScanStats pass = RunBlockScan(*table_, subs, threads);
    EXPECT_EQ(pass.rows_forwarded, standalone);
    EXPECT_EQ(pass.rows_located, standalone_located);
    for (size_t u = 0; u < kNumUsers; ++u) {
      SCOPED_TRACE(testing::Message() << "user=" << u);
      EXPECT_EQ(predictions[u], oracles[u]);
      if (HasSubregions(u)) {
        EXPECT_LT(forwarded[u], pass.rows_encoded);
      }
    }
  }

  serving::CoalescedScanOptions options;
  options.num_threads = 4;
  options.max_batch_requests = static_cast<int64_t>(kNumUsers);
  serving::CoalescedScanScheduler scheduler(*model_, table_, options);
  std::vector<std::vector<double>> full(kNumUsers);
  std::vector<std::thread> submitters;
  for (size_t u = 0; u < kNumUsers; ++u) {
    submitters.emplace_back([&, u] {
      EXPECT_TRUE(scheduler.PredictRows(*sessions[u], all, &full[u]).ok());
    });
  }
  for (std::thread& t : submitters) t.join();
  for (size_t u = 0; u < kNumUsers; ++u) EXPECT_EQ(full[u], oracles[u]);
  EXPECT_EQ(scheduler.stats().rows_forwarded, standalone);
  EXPECT_EQ(scheduler.stats().rows_located, standalone_located);
}

}  // namespace
}  // namespace lte::core
