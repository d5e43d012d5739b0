// The differential scan harness: every path that evaluates the conjunctive
// region R^u = ∧ R_i over a table (paper Section III-B) must reproduce the
// per-row `ExplorationSession::PredictRow` oracle byte for byte, with no
// tolerance. The argument for why it does is in DESIGN.md §2b; this file is
// the enforcement, and runs under the TSan CI job.
//
// Subjects:
//  * a session's PredictRows and RetrieveMatches (one-subscriber scans);
//  * multi-subscriber `RunBlockScan` passes, mixing predictions and
//    retrievals over the whole table or sharing an explicit row domain,
//    whose `rows_forwarded` and `rows_located` must equal an independent
//    count: the FP/FN hull tests, and the union certifier's cells of
//    fpfn_reference_cells.h;
//  * the `serving::CoalescedScanScheduler`, fed retrievals by concurrent
//    std::thread submitters;
//  * the `ScoreEncodedBlock` tool hook, against `PredictSubspace`.
// Dimensions: three tables (4000 blob rows; the same rows as a segmented
// live table; a boundary-adversarial table), the five users of `kUsers`, 1
// and 4 lanes, both kernel widths the host runs (nn::ScopedKernelWidth), and
// the row sets of `RowSets` and retrieval limits of `kLimits`. Two more
// models of the blob rows bring their own users: one whose f_tau holds
// non-finite weights, and one with a 1-D subspace.
//
// ctest runs every case in its own process, which builds its table, model
// and oracles once; so each case is one table and one subject family (or a
// slice of one) and loops over the other dimensions inside. The cases keep
// the names of the identity tests they replaced. A scan change adds a row
// set, a limit or a subject here rather than a test of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "core/block_scan.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "core/meta_learner.h"
#include "core/optimizer_fpfn.h"
#include "data/synthetic.h"
#include "fpfn_reference_cells.h"
#include "geom/convex_hull.h"
#include "geom/region.h"
#include "nn/batch_layer.h"
#include "nn/dispatch.h"
#include "nn/mlp.h"
#include "serving/coalesced_scan_scheduler.h"
#include "small_explorer_options.h"

namespace lte::core {
namespace {

using Point = std::vector<double>;
using Labels = std::vector<std::vector<double>>;

constexpr double kTolerance = 1e-9;  // geom::Region's membership epsilon.

// Start labels per subspace: interesting iff the tuple's first coordinate is
// at most the subspace's midpoint (kThreshold), every other tuple
// (kAlternate), or every tuple but the k_s centers (kNoPositiveCenters: no
// subregions, yet a classifier that may still find matches).
enum class Labeling { kThreshold, kAlternate, kNoPositiveCenters };

struct User {
  Labeling labeling;
  Variant variant;
};
constexpr User kUsers[] = {{Labeling::kThreshold, Variant::kBasic},
                           {Labeling::kThreshold, Variant::kMeta},
                           {Labeling::kThreshold, Variant::kMetaStar},
                           {Labeling::kAlternate, Variant::kMetaStar},
                           {Labeling::kNoPositiveCenters, Variant::kMetaStar}};

constexpr int64_t kLanes[] = {1, 4};
constexpr int64_t kLimits[] = {-1, 0, 1, 7, 20, 100, 5000};

// The kernel widths this host runs: 2, and 4 where KernelWidth() is 4.
std::vector<int> Widths() {
  return nn::KernelWidth() == 4 ? std::vector<int>{2, 4} : std::vector<int>{2};
}

// One scanned table and the model pretrained for it; the scan cases add its
// points, its users' sessions (one per lane count) and their oracles.
struct World {
  std::vector<User> users{std::begin(kUsers), std::end(kUsers)};
  std::vector<data::Subspace> subspaces;
  std::shared_ptr<ExplorationModel> model;
  data::Table table;
  std::vector<double> midpoints;   // Per subspace: kThreshold's cut.
  int64_t seam = 0;                // First row of the appended segments.
  std::vector<int64_t> seam_rows;  // Rows hugging the seams, duplicated.
  std::vector<Labels> labels;      // Per Labeling.
  std::vector<std::vector<Point>> points;  // Per subspace, per row.
  std::vector<std::array<std::unique_ptr<ExplorationSession>, 2>> sessions;
  std::vector<std::vector<double>> oracle;  // Per user, per row.
  // Per user, subspace and row: PredictSubspace on the row's point.
  std::vector<std::vector<std::vector<double>>> subspace_oracle;

  int64_t num_subspaces() const {
    return static_cast<int64_t>(subspaces.size());
  }
  int64_t num_rows() const { return table.num_rows(); }
  const std::vector<int64_t>& attrs(int64_t s) const {
    return subspaces[static_cast<size_t>(s)].attribute_indices;
  }
  const Labels& LabelsOf(size_t u) const {
    return labels[static_cast<size_t>(users[u].labeling)];
  }
};

Labels MakeLabels(const ExplorationModel& model,
                  const std::vector<double>& midpoints, Labeling labeling) {
  Labels labels(midpoints.size());
  for (size_t s = 0; s < midpoints.size(); ++s) {
    const auto ss = static_cast<int64_t>(s);
    const std::vector<Point>& tuples = *model.InitialTuples(ss);
    const int64_t k_s = model.generator(ss)->options().k_s;
    for (size_t i = 0; i < tuples.size(); ++i) {
      double label = tuples[i][0] <= midpoints[s] ? 1.0 : 0.0;
      if (labeling == Labeling::kAlternate) label = i % 2 == 0 ? 1.0 : 0.0;
      if (labeling == Labeling::kNoPositiveCenters) {
        label = static_cast<int64_t>(i) < k_s ? 0.0 : 1.0;
      }
      labels[s].push_back(label);
    }
  }
  return labels;
}

// The FP/FN optimizer a Meta* session builds for `labels` in subspace s: a
// pure function of the clustering context and the center labels. With
// `cells`, it also builds the settling cells over the subspace's value box,
// as the session does; without, Settle always defers to Locate.
FpFnOptimizer Optimizer(const ExplorationModel& model, const Labels& labels,
                        int64_t s, bool cells = false) {
  const std::vector<double>& all = labels[static_cast<size_t>(s)];
  const int64_t k_s = model.generator(s)->options().k_s;
  const std::vector<double> centers(all.begin(), all.begin() + k_s);
  return FpFnOptimizer(model.generator(s)->context(), centers,
                       model.options().fpfn,
                       cells ? model.ValueBox(s) : std::optional<geom::Box>());
}

// Runs `f(i)` for every i in [0, n) on up to four threads. The oracles
// below are const session calls, which a session serves concurrently; the
// subjects run their users' scans concurrently the same way.
template <typename F>
void ForEach(int64_t n, const F& f) {
  const int64_t lanes = std::clamp<int64_t>(
      static_cast<int64_t>(std::thread::hardware_concurrency()), 1, 4);
  std::vector<std::thread> threads;
  for (int64_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&, l] {
      for (int64_t i = l; i < n; i += lanes) f(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

// Every Labeling's start labels, in enum order.
void AddLabels(World* w) {
  for (const Labeling labeling : {Labeling::kThreshold, Labeling::kAlternate,
                                  Labeling::kNoPositiveCenters}) {
    w->labels.push_back(MakeLabels(*w->model, w->midpoints, labeling));
  }
}

// Every row's point in every subspace.
void AddPoints(World* w) {
  w->points.resize(w->subspaces.size());
  for (int64_t s = 0; s < w->num_subspaces(); ++s) {
    for (int64_t r = 0; r < w->num_rows(); ++r) {
      w->points[static_cast<size_t>(s)].push_back(
          w->table.RowProjected(r, w->attrs(s)));
    }
  }
}

// Every user's sessions (1 and 4 lanes, adapted from the same seed), its
// PredictRow oracle and its PredictSubspace oracle, which must agree. Runs
// at the host's own kernel width, before any scope narrows it.
void AddUsers(World* w) {
  for (size_t u = 0; u < w->users.size(); ++u) {
    std::array<std::unique_ptr<ExplorationSession>, 2> sessions;
    for (size_t l = 0; l < std::size(kLanes); ++l) {
      sessions[l] = std::make_unique<ExplorationSession>(w->model, kLanes[l]);
      Rng rng(41 + u);
      EXPECT_TRUE(
          sessions[l]->StartExploration(w->LabelsOf(u), w->users[u].variant,
                                        &rng)
              .ok());
    }
    std::vector<double> oracle(static_cast<size_t>(w->num_rows()));
    std::vector<std::vector<double>> subspace_oracle(
        w->subspaces.size(), std::vector<double>(oracle.size()));
    ForEach(w->num_rows(), [&](int64_t r) {
      const auto rr = static_cast<size_t>(r);
      oracle[rr] = sessions[0]->PredictRow(w->table.Row(r)).value_or(-1.0);
      double conjunction = 1.0;
      for (size_t s = 0; s < w->subspaces.size(); ++s) {
        subspace_oracle[s][rr] =
            sessions[0]
                ->PredictSubspace(static_cast<int64_t>(s), w->points[s][rr])
                .value_or(-1.0);
        conjunction = std::min(conjunction, subspace_oracle[s][rr]);
      }
      EXPECT_EQ(oracle[rr], conjunction) << "user=" << u << " row " << r;
    });
    // Both classes occur, and more matches than limit 100 keeps, so no
    // identity or truncation check below is vacuous. The user with no
    // positive center may find nothing; it is here for the no-subregion
    // path, which the forward counts pin.
    const double ones = std::accumulate(oracle.begin(), oracle.end(), 0.0);
    if (w->users[u].labeling != Labeling::kNoPositiveCenters) {
      EXPECT_GT(ones, 100.0) << "user=" << u;
    }
    EXPECT_LT(ones, static_cast<double>(oracle.size())) << "user=" << u;
    w->sessions.push_back(std::move(sessions));
    w->oracle.push_back(std::move(oracle));
    w->subspace_oracle.push_back(std::move(subspace_oracle));
  }
}

// ---------------------------------------------------------------------------
// The blobs table and its segmented twin.

// 4000 rows: three full 1024-row blocks plus a ragged 928-row tail. The twin
// holds the same rows, but rows [2500, 4000) arrive as ragged appends: 37
// rows (mid-block), 1024 (one block, offset so its edges straddle two serving
// blocks), then 439.
World MakeBlobsWorld(bool segmented,
                     std::vector<data::Subspace> subspaces = {{{0, 1}},
                                                              {{2, 3}}},
                     const ExplorerOptions& options = SmallExplorerOptions()) {
  World w;
  Rng rng(23);
  const data::Table blobs = data::MakeBlobs(4000, 4, 5, &rng);
  w.subspaces = std::move(subspaces);
  w.model = std::make_shared<ExplorationModel>(options);
  Rng pretrain_rng(23);
  EXPECT_TRUE(
      w.model->Pretrain(blobs, w.subspaces, /*train_meta=*/true,
                        &pretrain_rng)
          .ok());
  for (const data::Subspace& subspace : w.subspaces) {
    const data::Column& col = blobs.column(subspace.attribute_indices[0]);
    w.midpoints.push_back(col.min() + 0.45 * (col.max() - col.min()));
  }
  w.seam = 2500;
  w.seam_rows = {0, 2499, 2500, 2501, 2536, 2537, 2538, 3560, 3561, 3561,
                 3999, 42};
  if (segmented) {
    w.table = blobs.SnapshotPrefix(w.seam);
    int64_t next = w.seam;
    for (const int64_t size : {int64_t{37}, int64_t{1024}, int64_t{439}}) {
      std::vector<std::vector<double>> batch;
      for (int64_t i = 0; i < size; ++i) batch.push_back(blobs.Row(next++));
      EXPECT_TRUE(w.table.AppendRows(batch).ok());
    }
    EXPECT_EQ(w.table.num_segments(), 3);
    // The same rows, so the twin's oracle, and every scan of it, equals the
    // monolithic table's.
    for (int64_t r = 0; r < blobs.num_rows(); ++r) {
      EXPECT_EQ(w.table.Row(r), blobs.Row(r)) << "row " << r;
    }
  } else {
    w.table = blobs;
  }
  AddLabels(&w);
  return w;
}

std::string Serialized(const MetaLearner& learner) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  learner.Save(&writer);
  return out.str();
}

// The blobs table's first subspace for Meta* users whose adapted f_tau
// holds a +inf and a NaN first-layer weight. The pretrained model is saved,
// its φ_τ gets the two weights, at GMM one-hot inputs, and the model is
// loaded back; with online_steps = 0 a session adapts no weight, so its
// f_tau is that φ_τ. A dense row meets 0 · inf or 0 · NaN wherever it lacks
// those codes, terms the gather-add over its codes would skip, so every
// batch forward must widen its code rows to match PredictRow
// (Mlp::ForwardBatch).
World MakeNonFiniteWorld() {
  ExplorerOptions options = SmallExplorerOptions();
  options.online_steps = 0;
  World w = MakeBlobsWorld(false, {{{0, 1}}}, options);
  std::ostringstream file;
  EXPECT_TRUE(w.model->SaveToStream(&file).ok());
  std::string bytes = file.str();
  const std::string before = Serialized(*w.model->meta_learner(0));
  std::istringstream copy(before);
  BinaryReader reader(&copy);
  std::unique_ptr<MetaLearner> learner;
  EXPECT_TRUE(MetaLearner::LoadFrom(&reader, &learner).ok());
  std::vector<double> params = learner->phi_tau().GetParameters();
  const auto in = static_cast<size_t>(learner->phi_tau().in_features());
  params[1] = std::numeric_limits<double>::infinity();   // W[0][1].
  params[in + 2] = std::numeric_limits<double>::quiet_NaN();  // W[1][2].
  learner->mutable_phi_tau()->SetParameters(params);
  const size_t at = bytes.find(before);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(bytes.find(before, at + 1), std::string::npos);
  bytes.replace(at, before.size(), Serialized(*learner));
  auto patched = std::make_shared<ExplorationModel>(options);
  std::istringstream patched_file(bytes);
  EXPECT_TRUE(patched->LoadFromStream(&patched_file).ok());
  w.model = std::move(patched);
  w.users = {{Labeling::kThreshold, Variant::kMetaStar},
             {Labeling::kAlternate, Variant::kMetaStar}};
  return w;
}

// ---------------------------------------------------------------------------
// The boundary-adversarial table. The block scan settles every row whose
// FP/FN outer and inner subregions agree before it encodes anything, and
// settles most of those from the optimizer's proven grid cells
// (`FpFnOptimizer::Settle`); that is exact only if the region test it runs
// is the very one `PredictRow` runs. This table seeds rows where the two
// could part ways: hull vertices (the C^s/C^u centers), edge midpoints, and
// points just inside and outside every hull edge at the 1e-9 membership
// tolerance, over proper polygons, collinear (segment) hulls and
// single-point hulls; rows exactly on the settling grid's lines and cell
// corners and one ulp to either side; rows outside the Pretrain value box on
// both sides of a segment seam; a subspace where whole hulls fit in one
// cell, and one whose second column is constant (a zero-height box).

const std::vector<std::string> kColumns = {"a0", "a1", "a2", "a3", "a4",
                                           "a5", "a6", "a7", "a8", "a9"};

// Per subspace: the first coordinate at or below which kThreshold labels a
// tuple interesting.
const std::vector<double> kMidpoints = {5.0, 5.0, 0.5, 1.1, 5.0};

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

// The settling grid's line positions over [lo, hi], as the optimizer builds
// its cells: lo + c * (hi - lo) / G for c = 0..G.
std::vector<double> GridLines(double lo, double hi) {
  const int64_t g = FpFnOptimizer::kSettleGrid;
  const double step = (hi - lo) / static_cast<double>(g);
  std::vector<double> lines;
  for (int64_t c = 0; c <= g; ++c) {
    lines.push_back(lo + static_cast<double>(c) * step);
  }
  return lines;
}

// v and its neighbours one ulp below and above.
std::vector<double> Ulps(double v) {
  return {std::nextafter(v, -INFINITY), v, std::nextafter(v, INFINITY)};
}

// Rows on the settling grid of a subspace: every cell corner of every other
// grid line, one ulp to either side of it along each axis, and the midpoints
// of the cell edges along every line.
std::vector<Point> GridProbes(const ExplorationModel& model, int64_t s) {
  const geom::Box box = *model.ValueBox(s);
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

// Rows outside a subspace's Pretrain value box: one ulp, 1e-9 and 1.0 past
// each side, and past two sides at once.
std::vector<Point> OutsideProbes(const ExplorationModel& model, int64_t s) {
  const geom::Box box = *model.ValueBox(s);
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
std::vector<std::vector<Point>> Probes(const World& w) {
  std::vector<std::vector<Point>> probes(w.subspaces.size());
  for (int64_t s = 0; s < w.num_subspaces(); ++s) {
    std::vector<Point>& out = probes[static_cast<size_t>(s)];
    const SubspaceContext& ctx = w.model->generator(s)->context();
    out.insert(out.end(), ctx.centers_s.begin(), ctx.centers_s.end());
    out.insert(out.end(), ctx.centers_u.begin(), ctx.centers_u.end());
    for (const Labels& labels : w.labels) {
      const FpFnOptimizer opt = Optimizer(*w.model, labels, s);
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

// Rows put each subspace's probes behind anchors in the other subspaces, so
// the conjunction reaches every subspace: the anchors are the C^s centers,
// which the kThreshold/kAlternate sessions' inner subregions contain
// whenever that center is labelled positive. Anchor 0 is a center
// kThreshold labels positive in every other subspace, anchor 1 one that
// kAlternate does (an even index), anchor 2 any center.
void AddAnchoredRows(const World& w, int64_t s, const std::vector<Point>& own,
                     size_t anchors, std::vector<Point>* rows) {
  for (size_t j = 0; j < own.size(); ++j) {
    for (size_t anchor = 0; anchor < anchors; ++anchor) {
      Point row;
      for (int64_t t = 0; t < w.num_subspaces(); ++t) {
        const std::vector<Point>& centers =
            w.model->generator(t)->context().centers_s;
        std::vector<size_t> picks;
        for (size_t c = 0; c < centers.size(); ++c) {
          if ((anchor == 0 &&
               centers[c][0] <= w.midpoints[static_cast<size_t>(t)]) ||
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

// The hull probes (three anchors each) and grid probes (one), then the rows
// outside the value box. The last fifth of the hull and grid rows arrive
// through AppendRows, so every scan also crosses a segment seam; the outside
// rows straddle it, half on each side.
void BuildAdversarialTable(World* w) {
  const std::vector<std::vector<Point>> probes = Probes(*w);
  std::vector<Point> rows;
  std::vector<Point> outside;
  for (int64_t s = 0; s < w->num_subspaces(); ++s) {
    AddAnchoredRows(*w, s, probes[static_cast<size_t>(s)], 3, &rows);
    AddAnchoredRows(*w, s, GridProbes(*w->model, s), 1, &rows);
    AddAnchoredRows(*w, s, OutsideProbes(*w->model, s), 3, &outside);
  }
  const auto base = static_cast<std::ptrdiff_t>(rows.size() - rows.size() / 5);
  const auto half = static_cast<std::ptrdiff_t>(outside.size() / 2);
  std::vector<Point> first(rows.begin(), rows.begin() + base);
  first.insert(first.end(), outside.begin(), outside.begin() + half);
  std::vector<Point> appended(outside.begin() + half, outside.end());
  appended.insert(appended.end(), rows.begin() + base, rows.end());
  w->table = data::Table(kColumns);
  w->seam = static_cast<int64_t>(first.size());
  for (const Point& row : first) EXPECT_TRUE(w->table.AppendRow(row).ok());
  EXPECT_TRUE(w->table.AppendRows(appended).ok());
  const int64_t n = w->table.num_rows();
  w->seam_rows = {0, w->seam - 1, w->seam, w->seam, w->seam + 1, n - 1, 42};
}

World MakeAdversarialWorld() {
  World w;
  w.subspaces = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}},
                 data::Subspace{{4, 5}}, data::Subspace{{6, 7}},
                 data::Subspace{{8, 9}}};
  w.model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  Rng rng(37);
  EXPECT_TRUE(w.model
                  ->Pretrain(PretrainTable(), w.subspaces,
                             /*train_meta=*/true, &rng)
                  .ok());
  w.midpoints = kMidpoints;
  AddLabels(&w);
  BuildAdversarialTable(&w);
  return w;
}

// ---------------------------------------------------------------------------
// Expected results, from the oracle.

// Every row; a prime-sized offset prefix (ragged everywhere); a strided
// selection (gathers from non-contiguous rows); a scrambled selection with
// duplicates (an explicit row domain may come in any order); single rows
// at the table's ends and a block's last row; the seam rows; no rows.
enum RowSet : size_t {
  kAllRows,
  kPrefix,
  kStrided,
  kScrambled,
  kFirstRow,
  kBlockEnd,
  kLastRow,
  kSeamRows,
  kNoRows,
};
constexpr RowSet kEveryRowSet[] = {kAllRows,  kPrefix,   kStrided,
                                   kScrambled, kFirstRow, kBlockEnd,
                                   kLastRow,  kSeamRows, kNoRows};

std::vector<std::vector<int64_t>> RowSets(const World& w) {
  const int64_t n = w.num_rows();
  std::vector<std::vector<int64_t>> sets(4);
  sets[0].resize(static_cast<size_t>(n));
  std::iota(sets[0].begin(), sets[0].end(), int64_t{0});
  sets[1].resize(1531);
  std::iota(sets[1].begin(), sets[1].end(), int64_t{37});
  for (int64_t r = 1; r < n; r += 7) sets[2].push_back(r);
  for (int64_t r = n - 1; r >= 0; r -= 3) sets[3].push_back(r);
  for (int64_t r = 0; r < n; r += 11) sets[3].push_back(r);
  sets.push_back({0});
  sets.push_back({kServingBlockRows - 1});
  sets.push_back({n - 1});
  sets.push_back(w.seam_rows);
  sets.emplace_back();
  return sets;
}

std::vector<double> Select(const std::vector<double>& verdicts,
                           std::span<const int64_t> rows) {
  std::vector<double> out;
  for (const int64_t r : rows) out.push_back(verdicts[static_cast<size_t>(r)]);
  return out;
}

// The oracle's first `limit` matches (all for limit < 0), ascending.
std::vector<int64_t> Matches(const std::vector<double>& verdicts,
                             int64_t limit) {
  std::vector<int64_t> out;
  for (size_t r = 0; r < verdicts.size(); ++r) {
    if (limit >= 0 && static_cast<int64_t>(out.size()) == limit) break;
    if (verdicts[r] == 1.0) out.push_back(static_cast<int64_t>(r));
  }
  return out;
}

// What subscribers' scans of some rows cost: the (row, subspace) pairs the
// conjunction reaches; the forwards (each reached pair whose subregions do
// not decide the row, every reached pair without subregions); and the hull
// tests (each reached pair with subregions whose grid cell does not prove
// the row's membership).
struct Counts {
  int64_t reached = 0;
  int64_t forwarded = 0;
  int64_t located = 0;

  void Add(const Counts& c) {
    reached += c.reached;
    forwarded += c.forwarded;
    located += c.located;
  }
};

// Per row, one user's Counts by reference: the subregions are the reference
// optimizer's, the cells the union certifier's (fpfn_reference_cells.h), and
// the reach follows the PredictSubspace oracle, so nothing here reads the
// scan's own settling.
using RowCosts = std::vector<Counts>;

RowCosts ReferenceCosts(const World& w, size_t u) {
  std::vector<FpFnOptimizer> optimizers;
  std::vector<std::vector<uint8_t>> cells;
  std::vector<bool> subregions;
  for (int64_t s = 0; s < w.num_subspaces(); ++s) {
    optimizers.push_back(Optimizer(*w.model, w.LabelsOf(u), s));
    cells.push_back(reference::ReferenceCells(optimizers.back(),
                                              w.model->ValueBox(s)));
    subregions.push_back(w.users[u].variant == Variant::kMetaStar &&
                         optimizers.back().has_positive_centers());
  }
  RowCosts costs(static_cast<size_t>(w.num_rows()));
  ForEach(w.num_rows(), [&](int64_t r) {
    Counts& c = costs[static_cast<size_t>(r)];
    const auto rr = static_cast<size_t>(r);
    for (int64_t s = 0; s < w.num_subspaces(); ++s) {
      const auto su = static_cast<size_t>(s);
      const Point& p = w.points[su][rr];
      ++c.reached;
      if (!subregions[su] || !optimizers[su].Locate(p).decided()) {
        ++c.forwarded;
      }
      if (subregions[su] &&
          !reference::ReferenceSettles(
              cells[su], w.model->ValueBox(s).value_or(geom::Box{}), p)) {
        ++c.located;
      }
      if (w.subspace_oracle[u][su][rr] != 1.0) break;
    }
  });
  return costs;
}

Counts Sum(const RowCosts& costs, std::span<const int64_t> rows) {
  Counts c;
  for (const int64_t r : rows) c.Add(costs[static_cast<size_t>(r)]);
  return c;
}

bool HasSubregions(const User& user) {
  return user.variant == Variant::kMetaStar &&
         user.labeling != Labeling::kNoPositiveCenters;
}

// ---------------------------------------------------------------------------
// The subjects.

// A session's PredictRows over `sets` and, with `retrievals`,
// RetrieveMatches at every limit, for every user, lane count and kernel
// width. The users' sessions scan concurrently.
void CheckSessions(const World& w, std::span<const RowSet> sets,
                   bool retrievals) {
  const std::vector<std::vector<int64_t>> row_sets = RowSets(w);
  for (size_t l = 0; l < std::size(kLanes); ++l) {
    for (const int width : Widths()) {
      nn::ScopedKernelWidth scope(width);
      ForEach(w.users.size(), [&](int64_t u) {
        SCOPED_TRACE(testing::Message() << "user=" << u << " lanes="
                                        << kLanes[l] << " width=" << width);
        const std::vector<double>& oracle = w.oracle[static_cast<size_t>(u)];
        const ExplorationSession& session =
            *w.sessions[static_cast<size_t>(u)][l];
        for (const RowSet i : sets) {
          std::vector<double> predictions;
          ASSERT_TRUE(
              session.PredictRows(w.table, row_sets[i], &predictions).ok());
          EXPECT_EQ(predictions, Select(oracle, row_sets[i]))
              << "row set " << i;
        }
        if (!retrievals) return;
        for (const int64_t limit : kLimits) {
          std::vector<int64_t> matches;
          ASSERT_TRUE(session.RetrieveMatches(w.table, limit, &matches).ok());
          EXPECT_EQ(matches, Matches(oracle, limit)) << "limit=" << limit;
          EXPECT_TRUE(std::is_sorted(matches.begin(), matches.end()));
        }
      });
    }
  }
}

// The ScoreEncodedBlock tool hook over every row and over the seam rows
// (unordered, with a duplicate), per subspace, user and kernel width: every
// verdict equals PredictSubspace on the row's raw point.
void CheckHook(const World& w) {
  const std::vector<int64_t> all = RowSets(w)[0];
  for (int64_t s = 0; s < w.num_subspaces(); ++s) {
    const std::vector<int64_t>& attrs = w.attrs(s);
    std::vector<data::ColumnView> columns;
    for (const int64_t a : attrs) columns.push_back(w.table.View(a));
    std::vector<std::vector<double>> encoded(2);
    w.model->encoder().EncodeGatheredInto(columns, attrs, all, &encoded[0]);
    w.model->encoder().EncodeGatheredInto(columns, attrs, w.seam_rows,
                                          &encoded[1]);
    for (const int width : Widths()) {
      nn::ScopedKernelWidth scope(width);
      ForEach(w.users.size(), [&](int64_t u) {
        SCOPED_TRACE(testing::Message() << "user=" << u << " s=" << s
                                        << " width=" << width);
        const auto uu = static_cast<size_t>(u);
        for (size_t i = 0; i < encoded.size(); ++i) {
          const std::vector<int64_t>& rows = i == 0 ? all : w.seam_rows;
          std::vector<double> out(rows.size());
          std::vector<double> scratch;
          TaskModel::BatchScratch batch;
          w.sessions[uu][0]->ScoreEncodedBlock(s, encoded[i], rows, columns,
                                               &batch, &scratch, out);
          EXPECT_EQ(out,
                    Select(w.subspace_oracle[uu][static_cast<size_t>(s)], rows))
              << "row set " << i;
        }
      });
    }
  }
}

// Which retrievals a mixed pass holds in its round for lane-count index `l`
// and kernel width index `wi`: user u sends its k-th limit when u + k is the
// round's index modulo the number of rounds. Over the rounds every (user,
// limit) pair is sent exactly once, and each round still mixes users and
// limits. Shared passes only merge and demultiplex subscribers, so one
// round per pair suffices; the sessions check every pair at every lane
// count and width.
bool Sends(size_t u, size_t k, size_t l, size_t wi) {
  const size_t widths = Widths().size();
  return (u + k) % (std::size(kLanes) * widths) == l * widths + wi;
}

// RunBlockScan directly, per lane count and kernel width: with `alone`,
// each user's unlimited retrieval alone, whose forward and hull-test counts
// equal the reference's; with `mixed`, two shared passes. The first mixes
// every user's prediction over the whole table with the round's retrievals
// at the limits (see Sends). It cannot stop early (it holds predictions), so
// its counts are the sums of its subscribers' reference counts whatever the
// composition, and each subregion subscriber forwards a strict subset of
// the rows the pass encodes. The second has every user predict over one
// explicit domain, the scrambled rows with their duplicates.
void CheckPasses(const World& w, const std::vector<RowCosts>& costs,
                 bool alone, bool mixed) {
  std::vector<int64_t> limits;
  for (const int64_t limit : kLimits) {
    if (limit != 0) limits.push_back(limit);  // 0 is answered without a pass.
  }
  const std::vector<std::vector<int64_t>> row_sets = RowSets(w);
  const std::vector<int64_t>& all = row_sets[kAllRows];
  const std::vector<int64_t>& scrambled = row_sets[kScrambled];
  const std::vector<int> widths = Widths();
  for (size_t l = 0; l < std::size(kLanes); ++l) {
    const int64_t lanes = kLanes[l];
    for (size_t wi = 0; wi < widths.size(); ++wi) {
      const int width = widths[wi];
      SCOPED_TRACE(testing::Message() << "lanes=" << lanes
                                      << " width=" << width);
      nn::ScopedKernelWidth scope(width);
      ForEach(alone ? w.users.size() : 0, [&](int64_t u) {
        SCOPED_TRACE(testing::Message() << "user=" << u << " lanes=" << lanes
                                        << " width=" << width);
        const auto uu = static_cast<size_t>(u);
        std::vector<int64_t> matches;
        ScanSubscriber sub;
        sub.session = w.sessions[uu][0].get();
        sub.matches = &matches;
        const BlockScanStats alone =
            RunBlockScan(w.table, {}, {&sub, 1}, lanes);
        const Counts expected = Sum(costs[uu], all);
        EXPECT_EQ(matches, Matches(w.oracle[uu], -1));
        EXPECT_EQ(alone.rows_forwarded, expected.forwarded);
        EXPECT_EQ(alone.rows_located, expected.located);
      });
      if (!mixed) continue;

      // Subscriber q predicts when kinds[q] is 0, else retrieves at
      // limits[kinds[q] - 1].
      std::vector<ScanSubscriber> subs;
      std::vector<size_t> users;
      std::vector<size_t> kinds;
      const size_t most = w.users.size() * (1 + limits.size());
      std::vector<std::vector<double>> predictions(most);
      std::vector<std::vector<int64_t>> matches(most);
      Counts expected;
      for (size_t u = 0; u < w.users.size(); ++u) {
        for (size_t k = 0; k <= limits.size(); ++k) {
          if (k > 0 && !Sends(u, k - 1, l, wi)) continue;
          ScanSubscriber sub;
          sub.session = w.sessions[u][0].get();
          if (k == 0) {
            std::vector<double>& out = predictions[subs.size()];
            out.assign(all.size(), 0.0);
            sub.predictions = out;
          } else {
            sub.matches = &matches[subs.size()];
            sub.limit = limits[k - 1];
          }
          expected.Add(Sum(costs[u], all));
          subs.push_back(sub);
          users.push_back(u);
          kinds.push_back(k);
        }
      }
      const BlockScanStats pass = RunBlockScan(w.table, {}, subs, lanes);
      EXPECT_EQ(pass.rows_forwarded, expected.forwarded);
      EXPECT_EQ(pass.rows_located, expected.located);
      for (size_t q = 0; q < subs.size(); ++q) {
        const std::vector<double>& oracle = w.oracle[users[q]];
        const size_t k = kinds[q];
        SCOPED_TRACE(testing::Message() << "user=" << users[q]
                                        << " kind=" << k);
        if (k == 0) {
          EXPECT_EQ(predictions[q], oracle);
        } else {
          EXPECT_EQ(matches[q], Matches(oracle, limits[k - 1]));
        }
      }
      for (size_t u = 0; u < w.users.size(); ++u) {
        if (HasSubregions(w.users[u])) {
          EXPECT_LT(Sum(costs[u], all).forwarded, pass.rows_encoded)
              << "user=" << u;
        }
      }

      std::vector<ScanSubscriber> shared(w.users.size());
      std::vector<std::vector<double>> verdicts(
          w.users.size(), std::vector<double>(scrambled.size(), 0.0));
      Counts shared_expected;
      for (size_t u = 0; u < w.users.size(); ++u) {
        shared[u].session = w.sessions[u][0].get();
        shared[u].predictions = verdicts[u];
        shared_expected.Add(Sum(costs[u], scrambled));
      }
      const BlockScanStats shared_pass =
          RunBlockScan(w.table, scrambled, shared, lanes);
      EXPECT_EQ(shared_pass.rows_forwarded, shared_expected.forwarded);
      EXPECT_EQ(shared_pass.rows_located, shared_expected.located);
      for (size_t u = 0; u < w.users.size(); ++u) {
        EXPECT_EQ(verdicts[u], Select(w.oracle[u], scrambled))
            << "user=" << u;
      }
    }
  }
}

// The coalesced scheduler, per lane count of `lane_indices` (into kLanes)
// and kernel width, with one std::thread per request. Every user sends the
// round's retrievals: the unlimited round one at limit -1, whose passes
// cannot stop early, so the scheduler's counts are the reference sums; the
// limited round one at every other limit. At 1 lane each batch holds the
// whole round; at 4 lanes batches of at most 4 flush on a short deadline.
// Limit 0 never reaches a pass.
void CheckScheduler(const World& w, const std::vector<RowCosts>& costs,
                    std::initializer_list<size_t> lane_indices) {
  const std::vector<int64_t> all = RowSets(w)[kAllRows];
  const std::vector<int> widths = Widths();
  for (const size_t l : lane_indices) {
    const int64_t lanes = kLanes[l];
    for (size_t wi = 0; wi < widths.size(); ++wi) {
      SCOPED_TRACE(testing::Message() << "lanes=" << lanes
                                      << " width=" << widths[wi]);
      nn::ScopedKernelWidth scope(widths[wi]);
      for (const bool unlimited : {true, false}) {
        SCOPED_TRACE(unlimited ? "unlimited retrievals" : "limited retrievals");
        std::vector<size_t> users;
        std::vector<int64_t> limits;
        int64_t in_passes = 0;
        Counts expected;
        for (size_t u = 0; u < w.users.size(); ++u) {
          for (const int64_t limit : kLimits) {
            if (unlimited != (limit < 0)) continue;
            users.push_back(u);
            limits.push_back(limit);
            in_passes += limit != 0;
            expected.Add(Sum(costs[u], all));
          }
        }

        serving::CoalescedScanOptions options;
        options.num_threads = lanes;
        options.max_batch_requests = lanes == 1 ? in_passes : 4;
        options.flush_deadline_micros = lanes == 1 ? 60000000 : 2000;
        serving::CoalescedScanScheduler scheduler(w.model, &w.table, options);
        std::vector<std::vector<int64_t>> matches(users.size());
        std::vector<std::thread> submitters;
        for (size_t i = 0; i < users.size(); ++i) {
          submitters.emplace_back([&, i] {
            EXPECT_TRUE(scheduler
                            .RetrieveMatches(*w.sessions[users[i]][0],
                                             limits[i], &matches[i])
                            .ok());
          });
        }
        for (std::thread& t : submitters) t.join();

        for (size_t i = 0; i < users.size(); ++i) {
          SCOPED_TRACE(testing::Message() << "user=" << users[i]
                                          << " limit=" << limits[i]);
          EXPECT_EQ(matches[i], Matches(w.oracle[users[i]], limits[i]));
          EXPECT_TRUE(std::is_sorted(matches[i].begin(), matches[i].end()));
        }
        const serving::CoalescedScanStats stats = scheduler.stats();
        EXPECT_EQ(stats.requests, in_passes);
        if (lanes == 1) {
          EXPECT_EQ(stats.batches, 1);
          EXPECT_EQ(stats.largest_batch, in_passes);
        } else {
          EXPECT_GE(stats.batches, (in_passes + 3) / 4);
          EXPECT_LE(stats.largest_batch, 4);
        }
        if (unlimited) {
          EXPECT_EQ(stats.rows_forwarded, expected.forwarded);
          EXPECT_EQ(stats.rows_located, expected.located);
        }
      }
    }
  }
}

// A table with its points, users and oracles added.
World Ready(World world) {
  AddPoints(&world);
  AddUsers(&world);
  return world;
}

// Every user's reference costs per row. The subregions decide some reached
// pairs and the cells prove some, though never all of them; without
// subregions every reached pair forwards and none is hull-tested.
std::vector<RowCosts> CheckedCosts(const World& w) {
  std::vector<RowCosts> costs;
  for (size_t u = 0; u < w.users.size(); ++u) {
    costs.push_back(ReferenceCosts(w, u));
  }
  for (size_t u = 0; u < w.users.size(); ++u) {
    SCOPED_TRACE(testing::Message() << "user=" << u);
    const Counts whole = Sum(costs[u], RowSets(w)[kAllRows]);
    if (HasSubregions(w.users[u])) {
      EXPECT_LT(whole.forwarded, whole.reached);
      EXPECT_GT(whole.located, 0);
      EXPECT_LT(whole.located, whole.reached);
    } else {
      EXPECT_EQ(whole.forwarded, whole.reached);
      EXPECT_EQ(whole.located, 0);
    }
  }
  return costs;
}

// Every subject over every row set, limit and round.
void CheckEverySubject(const World& w) {
  CheckSessions(w, kEveryRowSet, /*retrievals=*/true);
  CheckHook(w);
  const std::vector<RowCosts> costs = CheckedCosts(w);
  CheckPasses(w, costs, /*alone=*/true, /*mixed=*/true);
  CheckScheduler(w, costs, {0, 1});
}

// The cases: one table and one subject family each, so every case process
// pays one table's pretrain and oracles. Together a table's cases run every
// subject over every dimension.

// The blobs table.
TEST(ColumnarScanTest, ColumnarIsDefault) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckSessions(w, {{kAllRows}}, /*retrievals=*/false);
}
TEST(ColumnarScanTest, PathsAreByteIdentical) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckSessions(w, {{kPrefix, kStrided}}, /*retrievals=*/false);
}
TEST(ColumnarScanTest, SmallAndSingleRowScans) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckSessions(w, {{kFirstRow, kBlockEnd, kLastRow, kSeamRows, kNoRows}},
                /*retrievals=*/false);
}
TEST(ExplorationSessionParallelTest, PredictRowsMatchesRowWisePredictRow) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckSessions(w, {{kScrambled}}, /*retrievals=*/false);
}
// The 4-lane sessions, adapted at 4 lanes, retrieve the 1-lane oracle's
// matches at every limit.
TEST(ExplorationSessionParallelTest, RetrieveMatchesThreadCountInvariant) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckSessions(w, {}, /*retrievals=*/true);
}
TEST(ColumnarScanTest, BlockScanAgreesWithScalarPredictRow) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckHook(w);
  CheckPasses(w, CheckedCosts(w), /*alone=*/true, /*mixed=*/true);
}
// At 1 lane one batch mixes every user's retrievals of its round.
TEST(CoalescedScanSchedulerTest, MixedBatchDemultiplexes) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckScheduler(w, CheckedCosts(w), {0});
}
TEST(CoalescedScanSchedulerTest, ConcurrentRetrieveMatchesByteIdentical) {
  const World w = Ready(MakeBlobsWorld(false));
  CheckScheduler(w, CheckedCosts(w), {1});
}

// The segmented twin: every subject in one case.
TEST(ScanDifferentialTest, Segmented) {
  CheckEverySubject(Ready(MakeBlobsWorld(true)));
}

// Meta* users whose f_tau holds a +inf and a NaN weight (MakeNonFiniteWorld).
// The widening fallback runs and matters: Pack flags the patched f_tau, and
// on some rows of the table the gather-add over the unwidened code rows
// gives other bits than the widened forward. Both verdicts occur (AddUsers
// checks that).
TEST(ScanDifferentialTest, NonFiniteWeights) {
  const World w = Ready(MakeNonFiniteWorld());
  const nn::Mlp& f_tau = w.model->meta_learner(0)->phi_tau();
  nn::Mlp::Scratch scratch;
  EXPECT_FALSE(f_tau.Pack(&scratch));
  std::vector<data::ColumnView> columns;
  for (const int64_t a : w.attrs(0)) columns.push_back(w.table.View(a));
  const std::vector<int64_t> all = RowSets(w)[kAllRows];
  std::vector<Code> codes;
  const CodeRows rows = w.model->encoder().EncodeGatheredCodesInto(
      columns, w.attrs(0), all, &codes);
  const int64_t n = w.num_rows();
  f_tau.ForwardBatch(rows, n, &scratch);
  const std::vector<double>& widened = scratch.outputs.front();
  std::vector<double> narrow(widened.size());
  nn::ForwardBatchLayer(scratch.packed.front(), rows, {}, n,
                        /*relu=*/f_tau.num_layers() > 1, narrow.data());
  const size_t out = widened.size() / static_cast<size_t>(n);
  int64_t differing = 0;
  for (size_t r = 0; r < static_cast<size_t>(n); ++r) {
    differing += std::memcmp(widened.data() + r * out,
                             narrow.data() + r * out,
                             out * sizeof(double)) != 0;
  }
  EXPECT_GT(differing, 0);
  CheckEverySubject(w);
}

// Every user over the blobs table with a 1-D subspace first. Its FP/FN
// subregions are intervals and it has no settling cells, so a Meta* user
// hull-tests every row the conjunction reaches there, and each scan's
// `rows_located` must equal the reference count (CheckPasses).
TEST(ScanDifferentialTest, OneDimensionalSubspace) {
  const World w = Ready(MakeBlobsWorld(false, {{{0}}, {{2, 3}}}));
  EXPECT_FALSE(w.model->ValueBox(0).has_value());
  CheckEverySubject(w);
}

// The boundary-adversarial table.
TEST(RegionBoundaryTest, DirectScansMatchOracle) {
  const World w = Ready(MakeAdversarialWorld());
  CheckSessions(w, kEveryRowSet, /*retrievals=*/true);
  CheckPasses(w, CheckedCosts(w), /*alone=*/true, /*mixed=*/false);
}
TEST(RegionBoundaryTest, ScoreEncodedBlockMatchesPredictSubspace) {
  CheckHook(Ready(MakeAdversarialWorld()));
}
TEST(RegionBoundaryTest, CoalescedScansMatchOracle) {
  const World w = Ready(MakeAdversarialWorld());
  const std::vector<RowCosts> costs = CheckedCosts(w);
  CheckPasses(w, costs, /*alone=*/false, /*mixed=*/true);
  CheckScheduler(w, costs, {0, 1});
}

// The refresh worker's rebuild input: pretraining on a full-table
// SnapshotPrefix of the segmented twin reproduces the monolithic pretrain
// bit for bit (same rows, same seed => same fingerprint).
TEST(ScanDifferentialTest, PretrainOnSnapshotPrefixIsByteIdentical) {
  const World w = MakeBlobsWorld(/*segmented=*/true);
  const data::Table snapshot = w.table.SnapshotPrefix(w.num_rows());
  ExplorationModel from_snapshot(SmallExplorerOptions());
  Rng rng(23);
  ASSERT_TRUE(from_snapshot
                  .Pretrain(snapshot, w.subspaces, /*train_meta=*/true, &rng)
                  .ok());
  EXPECT_EQ(from_snapshot.fingerprint(), w.model->fingerprint());
}

// ---------------------------------------------------------------------------
// The adversarial table reaches what it claims.

// Segment and single-point hulls (the geom SegmentDistance and point paths)
// besides proper polygons, and table rows in all four (outer, inner)
// membership combinations — including inside-inner-but-outside-outer, where
// the rule must not assume inner ⊆ outer.
TEST(RegionBoundaryTest, FixtureCoversDegenerateHullsAndAllMemberships) {
  const World w = MakeAdversarialWorld();
  int64_t hull_sizes[3] = {0, 0, 0};  // 1 vertex, 2 vertices, >= 3.
  int64_t memberships[2][2] = {{0, 0}, {0, 0}};
  for (size_t u = 0; u < w.users.size(); ++u) {
    if (!HasSubregions(w.users[u])) continue;
    for (int64_t s = 0; s < w.num_subspaces(); ++s) {
      const FpFnOptimizer opt = Optimizer(*w.model, w.LabelsOf(u), s);
      ASSERT_TRUE(opt.has_positive_centers());
      for (const geom::Region* region :
           {&opt.outer_subregion(), &opt.inner_subregion()}) {
        for (const geom::ConvexRegion& part : region->parts()) {
          ++hull_sizes[std::min<size_t>(part.hull().size(), 3) - 1];
        }
      }
      for (int64_t r = 0; r < w.num_rows(); ++r) {
        const FpFnOptimizer::Membership m =
            opt.Locate(w.table.RowProjected(r, w.attrs(s)));
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
  const Labels& none = w.labels[static_cast<size_t>(
      Labeling::kNoPositiveCenters)];
  for (int64_t s = 0; s < w.num_subspaces(); ++s) {
    EXPECT_FALSE(Optimizer(*w.model, none, s).has_positive_centers());
  }
}

// The settling-grid shapes: a polygon hull that fits inside one grid cell,
// a value box of zero height, and rows outside the value box on both sides
// of the segment seam.
TEST(RegionBoundaryTest, FixtureCoversSettlingGridShapes) {
  const World w = MakeAdversarialWorld();
  int64_t polygons_in_one_cell = 0;
  for (size_t u = 0; u < w.users.size(); ++u) {
    if (!HasSubregions(w.users[u])) continue;
    for (int64_t s = 0; s < w.num_subspaces(); ++s) {
      const geom::Box box = *w.model->ValueBox(s);
      const std::vector<double> xs = GridLines(box.xlo, box.xhi);
      const std::vector<double> ys = GridLines(box.ylo, box.yhi);
      const FpFnOptimizer opt = Optimizer(*w.model, w.LabelsOf(u), s);
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

  const geom::Box flat = *w.model->ValueBox(4);
  EXPECT_EQ(flat.ylo, flat.yhi) << "the constant column's box has height";
  EXPECT_LT(flat.xlo, flat.xhi);

  // Rows outside the value box, before and after the seam.
  ASSERT_EQ(w.table.num_segments(), 1);
  int64_t outside[2] = {0, 0};
  for (int64_t r = 0; r < w.num_rows(); ++r) {
    for (int64_t s = 0; s < w.num_subspaces(); ++s) {
      const geom::Box box = *w.model->ValueBox(s);
      const Point p = w.table.RowProjected(r, w.attrs(s));
      if (p[0] < box.xlo || p[0] > box.xhi || p[1] < box.ylo ||
          p[1] > box.yhi) {
        ++outside[r < w.seam ? 0 : 1];
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
TEST(RegionBoundaryTest, SettledCellsAgreeWithLocate) {
  const World w = MakeAdversarialWorld();
  for (int64_t s = 0; s < w.num_subspaces(); ++s) {
    int64_t settled = 0;
    int64_t located = 0;
    for (size_t u = 0; u < w.users.size(); ++u) {
      if (!HasSubregions(w.users[u])) continue;
      SCOPED_TRACE(testing::Message() << "user=" << u << " s=" << s);
      const FpFnOptimizer opt =
          Optimizer(*w.model, w.LabelsOf(u), s, /*cells=*/true);
      for (int64_t r = 0; r < w.num_rows(); ++r) {
        const Point p = w.table.RowProjected(r, w.attrs(s));
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

}  // namespace
}  // namespace lte::core
