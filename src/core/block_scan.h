#ifndef LTE_CORE_BLOCK_SCAN_H_
#define LTE_CORE_BLOCK_SCAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/table.h"

namespace lte::core {

class ExplorationSession;

/// One session's share of a block-scan pass: a whole-table retrieval when
/// `matches` is non-null, else a prediction over the pass's row domain.
struct ScanSubscriber {
  const ExplorationSession* session = nullptr;
  /// Prediction output, one slot per position of the pass's row domain,
  /// zero-filled by the caller; the pass sets the slots of interesting rows
  /// to 1.0.
  std::span<double> predictions;
  /// Retrieval output: receives the first `limit` matching row ids in
  /// ascending order (`limit < 0` = all). Cleared by the caller.
  std::vector<int64_t>* matches = nullptr;
  /// Retrieval: nonzero (callers answer `limit == 0` without a pass).
  int64_t limit = -1;
};

/// What one pass did, for the serving stats ledger. All four are pure
/// functions of the table, the sessions and the pass composition.
struct BlockScanStats {
  /// Gather+encode rounds: one per (block, subspace) in which some live
  /// subscriber has band rows. A (block, subspace) whose rows the FP/FN
  /// subregions settle entirely is never encoded.
  int64_t encode_passes = 0;
  /// Rows gathered and encoded over those rounds: per round, the union of
  /// the live subscribers' band rows.
  int64_t rows_encoded = 0;
  /// Rows that reached a batch forward, summed over subscribers and
  /// subspaces: the band rows (every live row for a subscriber without
  /// subregions).
  int64_t rows_forwarded = 0;
  /// Rows that needed the direct FP/FN hull test, summed over subscribers
  /// and subspaces: rows located in a subregion subscriber's subspace whose
  /// grid cell does not prove their membership (open cells, rows outside
  /// the Pretrain value box, every row of a 1-D subspace).
  int64_t rows_located = 0;
};

/// The one block scan behind every table evaluation of the conjunctive UIR
/// R^u = ∧ R_i (paper Section III-B): `ExplorationSession::PredictRows` and
/// `RetrieveMatches` run it with one subscriber, `serving::
/// CoalescedScanScheduler` with every request of a shared pass.
///
/// The pass's row domain is `rows` as given (any order, duplicates allowed),
/// or `[0, table.num_rows())` when `rows` is empty, and every subscriber owns
/// all of it. The domain is split into `kServingBlockRows`-row blocks that up
/// to `num_threads` lanes claim in increasing order (0 = auto). Per block
/// and active subspace in conjunction order, region first:
///  * each subscriber locates the rows still alive for it in its Meta*
///    FP/FN subregions (`ExplorationSession::LocateRows`, raw column values,
///    no encode; a row in a proven grid cell takes the cell's membership
///    without a hull test); a row inside both or outside both takes that
///    verdict;
///  * the union of the remaining band rows is gathered and encoded once, in
///    code form (`TabularEncoder::EncodeGatheredCodesInto`: each row's
///    nonzero inputs only);
///  * each subscriber forwards its own band rows, passed as indices into
///    the shared encoded block and read in place
///    (`ExplorationSession::ForwardEncoded`, whose first layer gathers the
///    codes' weights; nothing is copied out), every row gets
///    `FpFnOptimizer::Decide`'s verdict, and the rows it rejects drop out.
/// Subscribers without subregions send every alive row to the forward.
/// When every subscriber is a limit-bounded retrieval whose matches cover
/// its limit, lanes stop claiming blocks; executed blocks always form a
/// prefix, so truncating the ascending matches reproduces the unlimited
/// scan's prefix.
///
/// Every verdict is bit-identical to that session scanning alone, at any
/// lane count and in any pass composition, and to the per-row `PredictRow`
/// (DESIGN.md §2b). Scratch lives per lane for the whole pass, so on one
/// lane the number of allocations does not grow with the number of blocks
/// (other lanes' match lists grow with the matches they find).
///
/// Preconditions (LTE_CHECKed where cheap): every session passed
/// `ValidateServing(table)` and shares one model; `rows` are in range; each
/// prediction has one slot per domain position (over the implicit domain,
/// the table's row count when the pass starts); a retrieval has a nonzero
/// limit and the implicit domain.
BlockScanStats RunBlockScan(const data::Table& table,
                            std::span<const int64_t> rows,
                            std::span<const ScanSubscriber> subscribers,
                            int64_t num_threads);

}  // namespace lte::core

#endif  // LTE_CORE_BLOCK_SCAN_H_
