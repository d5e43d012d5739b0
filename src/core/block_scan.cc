#include "core/block_scan.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/exploration_session.h"

namespace lte::core {
namespace {

/// One lane's buffers, reserved for a full block when the pass starts and
/// reused for every block the lane claims.
struct LaneScratch {
  /// Per subscriber: block positions it still predicts positive.
  std::vector<std::vector<int64_t>> alive;
  /// Per subscriber: the subregion membership of each `alive` position in
  /// the current subspace, and how many of them are band rows.
  std::vector<std::vector<FpFnOptimizer::Membership>> where;
  std::vector<int64_t> band;
  /// Per retrieval subscriber: matches found by this lane (lanes > 0; lane 0
  /// appends straight to the subscriber's output).
  std::vector<std::vector<int64_t>> hits;
  std::vector<int64_t> next;
  std::vector<uint8_t> member;         // 1 = some subscriber's band row.
  std::vector<int64_t> encoded_index;  // Block position -> row of `encoded`.
  std::vector<int64_t> gather;         // Table rows of the encoded set.
  /// One subscriber's table rows (LocateRows), then its band rows' indices
  /// into `encoded` (ForwardEncoded).
  std::vector<int64_t> sub_rows;
  std::vector<Code> encoded;  // The encoded set in code form.
  std::vector<double> probs;
  std::vector<double> verdicts;
  TaskModel::BatchScratch batch;
  int64_t encode_passes = 0;
  int64_t rows_encoded = 0;
  int64_t rows_forwarded = 0;
  int64_t rows_located = 0;
};

class BlockPass {
 public:
  BlockPass(const data::Table& table, std::span<const int64_t> rows,
            std::span<const ScanSubscriber> subscribers, int64_t num_threads)
      : subscribers_(subscribers),
        model_(subscribers.front().session->model()),
        domain_(rows),
        // The row count is read before any view is taken, so every view
        // covers the domain even while the table keeps appending.
        domain_size_(rows.empty() ? table.num_rows()
                                  : static_cast<int64_t>(rows.size())),
        found_(subscribers.size()) {
    can_cancel_ = true;
    int64_t max_active = 0;
    for (const ScanSubscriber& sub : subscribers_) {
      LTE_CHECK(&sub.session->model() == &model_);
      const bool retrieve = sub.matches != nullptr;
      if (retrieve) {
        LTE_CHECK_NE(sub.limit, 0);
        LTE_CHECK(domain_.empty());
      } else {
        LTE_CHECK_EQ(static_cast<int64_t>(sub.predictions.size()),
                     domain_size_);
      }
      can_cancel_ &= retrieve && sub.limit > 0;
      max_active = std::max(max_active, sub.session->active_subspaces());
    }
    num_blocks_ = (domain_size_ + kServingBlockRows - 1) / kServingBlockRows;

    views_.resize(static_cast<size_t>(max_active));
    codes_per_row_.resize(static_cast<size_t>(max_active));
    int64_t max_codes = 0;
    for (int64_t s = 0; s < max_active; ++s) {
      const std::vector<int64_t>& attrs = model_.subspace(s)->attribute_indices;
      for (const int64_t a : attrs) {
        views_[static_cast<size_t>(s)].push_back(table.View(a));
      }
      codes_per_row_[static_cast<size_t>(s)] =
          model_.encoder().ProjectedCodeCount(attrs);
      max_codes = std::max(max_codes, codes_per_row_[static_cast<size_t>(s)]);
    }

    const int64_t lanes = std::min(ResolveThreadCount(num_threads),
                                   std::max<int64_t>(num_blocks_, 1));
    const auto block = static_cast<size_t>(
        std::min<int64_t>(kServingBlockRows, domain_size_));
    const size_t q_count = subscribers_.size();
    lanes_.resize(static_cast<size_t>(lanes));
    for (LaneScratch& sc : lanes_) {
      sc.alive.resize(q_count);
      for (std::vector<int64_t>& alive : sc.alive) alive.reserve(block);
      sc.where.resize(q_count);
      for (auto& where : sc.where) where.reserve(block);
      sc.band.resize(q_count);
      sc.hits.resize(q_count);
      sc.next.reserve(block);
      sc.member.resize(block);
      sc.encoded_index.resize(block);
      sc.gather.reserve(block);
      sc.sub_rows.reserve(block);
      sc.probs.reserve(block);
      sc.verdicts.reserve(block);
      sc.encoded.reserve(block * static_cast<size_t>(max_codes));
    }
  }

  BlockScanStats Run() {
    ThreadPool::Shared().ParallelForEarlyExit(
        num_blocks_, static_cast<int64_t>(lanes_.size()),
        [this](int64_t lane, int64_t block) {
          ScanBlock(&lanes_[static_cast<size_t>(lane)], lane == 0, block);
        },
        [this] { return Satisfied(); });

    BlockScanStats stats;
    for (const LaneScratch& sc : lanes_) {
      stats.encode_passes += sc.encode_passes;
      stats.rows_encoded += sc.rows_encoded;
      stats.rows_forwarded += sc.rows_forwarded;
      stats.rows_located += sc.rows_located;
    }
    for (size_t q = 0; q < subscribers_.size(); ++q) {
      std::vector<int64_t>* matches = subscribers_[q].matches;
      if (matches == nullptr) continue;
      // Each lane claims ascending blocks, so each lane's matches ascend;
      // merging them yields ascending row order.
      for (size_t l = 1; l < lanes_.size(); ++l) {
        const auto mid = static_cast<std::ptrdiff_t>(matches->size());
        matches->insert(matches->end(), lanes_[l].hits[q].begin(),
                        lanes_[l].hits[q].end());
        std::inplace_merge(matches->begin(), matches->begin() + mid,
                           matches->end());
      }
      // The executed blocks form a prefix holding the first `limit` matches
      // (blocks are claimed in increasing order and only the cancellation
      // check stops claiming), so truncation yields the unlimited scan's
      // prefix no matter which blocks past the cut still ran.
      const int64_t limit = subscribers_[q].limit;
      if (limit > 0 && static_cast<int64_t>(matches->size()) > limit) {
        matches->resize(static_cast<size_t>(limit));
      }
    }
    return stats;
  }

 private:
  int64_t RowAt(int64_t position) const {
    return domain_.empty() ? position : domain_[static_cast<size_t>(position)];
  }

  /// True once every subscriber is a limit-bounded retrieval whose matches
  /// cover its limit. Monotone: match counts only grow.
  bool Satisfied() const {
    if (!can_cancel_) return false;
    for (size_t q = 0; q < subscribers_.size(); ++q) {
      if (found_[q].load(std::memory_order_relaxed) < subscribers_[q].limit) {
        return false;
      }
    }
    return true;
  }

  void ScanBlock(LaneScratch* sc, bool lane_zero, int64_t block) {
    const int64_t lo = block * kServingBlockRows;
    const int64_t n = std::min(kServingBlockRows, domain_size_ - lo);
    const size_t q_count = subscribers_.size();

    // Every subscriber starts on the whole block.
    for (std::vector<int64_t>& alive : sc->alive) {
      alive.resize(static_cast<size_t>(n));
      std::iota(alive.begin(), alive.end(), int64_t{0});
    }

    // Per subspace: each live subscriber first settles the rows its FP/FN
    // subregions decide, from the raw column values alone. One gather+encode
    // covers the union of the remaining band rows; each subscriber forwards
    // its own band rows and drops every row it rejects.
    for (int64_t s = 0; s < static_cast<int64_t>(views_.size()); ++s) {
      const auto su = static_cast<size_t>(s);
      const auto live = [&](size_t q) {
        return !sc->alive[q].empty() &&
               subscribers_[q].session->active_subspaces() > s;
      };
      std::fill_n(sc->member.begin(), n, uint8_t{0});
      bool any_live = false;
      bool any_band = false;
      for (size_t q = 0; q < q_count; ++q) {
        if (!live(q)) continue;
        const std::vector<int64_t>& alive = sc->alive[q];
        std::vector<FpFnOptimizer::Membership>& where = sc->where[q];
        sc->sub_rows.resize(alive.size());
        for (size_t i = 0; i < alive.size(); ++i) {
          sc->sub_rows[i] = RowAt(lo + alive[i]);
        }
        where.resize(alive.size());
        sc->band[q] = subscribers_[q].session->LocateRows(
            s, views_[su], sc->sub_rows, where, &sc->rows_located);
        for (size_t i = 0; i < alive.size(); ++i) {
          if (!where[i].decided()) {
            sc->member[static_cast<size_t>(alive[i])] = 1;
          }
        }
        any_live = true;
        any_band |= sc->band[q] > 0;
      }
      if (!any_live) break;
      if (any_band) {
        sc->gather.clear();
        for (int64_t p = 0; p < n; ++p) {
          if (sc->member[static_cast<size_t>(p)] == 0) continue;
          sc->encoded_index[static_cast<size_t>(p)] =
              static_cast<int64_t>(sc->gather.size());
          sc->gather.push_back(RowAt(lo + p));
        }
        model_.encoder().EncodeGatheredCodesInto(
            views_[su], model_.subspace(s)->attribute_indices, sc->gather,
            &sc->encoded);
        ++sc->encode_passes;
        sc->rows_encoded += static_cast<int64_t>(sc->gather.size());
      }

      for (size_t q = 0; q < q_count; ++q) {
        if (!live(q)) continue;
        std::vector<int64_t>& alive = sc->alive[q];
        const std::vector<FpFnOptimizer::Membership>& where = sc->where[q];
        const auto band = static_cast<size_t>(sc->band[q]);
        sc->probs.resize(band);
        if (band > 0) {
          // The subscriber's band rows, as indices into the shared encoded
          // block: its forward reads them in place.
          sc->sub_rows.clear();
          for (size_t i = 0; i < alive.size(); ++i) {
            if (where[i].decided()) continue;
            sc->sub_rows.push_back(
                sc->encoded_index[static_cast<size_t>(alive[i])]);
          }
          subscribers_[q].session->ForwardEncoded(
              s, CodeRows{sc->encoded, codes_per_row_[su]}, sc->sub_rows,
              &sc->batch, sc->probs);
          sc->rows_forwarded += static_cast<int64_t>(band);
        }
        sc->verdicts.resize(alive.size());
        FpFnOptimizer::DecideAll(where, sc->probs, sc->verdicts);
        sc->next.clear();
        for (size_t i = 0; i < alive.size(); ++i) {
          if (sc->verdicts[i] >= 0.5) sc->next.push_back(alive[i]);
        }
        alive.swap(sc->next);
      }
    }

    // Demux the block's survivors into each subscriber's output.
    for (size_t q = 0; q < q_count; ++q) {
      const ScanSubscriber& sub = subscribers_[q];
      const std::vector<int64_t>& alive = sc->alive[q];
      if (alive.empty()) continue;
      if (sub.matches != nullptr) {
        std::vector<int64_t>& out = lane_zero ? *sub.matches : sc->hits[q];
        for (const int64_t p : alive) out.push_back(lo + p);
        if (sub.limit > 0) {
          found_[q].fetch_add(static_cast<int64_t>(alive.size()),
                              std::memory_order_relaxed);
        }
      } else {
        for (const int64_t p : alive) {
          sub.predictions[static_cast<size_t>(lo + p)] = 1.0;
        }
      }
    }
  }

  std::span<const ScanSubscriber> subscribers_;
  const ExplorationModel& model_;
  std::span<const int64_t> domain_;  // Empty: the domain is [0, domain_size_).
  int64_t domain_size_ = 0;
  int64_t num_blocks_ = 0;
  bool can_cancel_ = false;
  std::vector<std::atomic<int64_t>> found_;  // Per subscriber match count.
  // Per subspace that some subscriber reaches.
  std::vector<std::vector<data::ColumnView>> views_;
  std::vector<int64_t> codes_per_row_;
  std::vector<LaneScratch> lanes_;
};

}  // namespace

BlockScanStats RunBlockScan(const data::Table& table,
                            std::span<const int64_t> rows,
                            std::span<const ScanSubscriber> subscribers,
                            int64_t num_threads) {
  if (subscribers.empty()) return {};
  return BlockPass(table, rows, subscribers, num_threads).Run();
}

}  // namespace lte::core
