#ifndef LTE_SERVING_SESSION_MANAGER_H_
#define LTE_SERVING_SESSION_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "serving/model_registry.h"

namespace lte::serving {

/// Capacity and placement knobs of the session lifecycle manager
/// (DESIGN.md §2d).
struct SessionManagerOptions {
  /// K: sessions kept resident in RAM. The manager may transiently exceed
  /// this when more than K sessions are pinned at once (pinned sessions are
  /// never evicted); it trims back to K as pins release.
  int64_t max_resident = 64;
  /// Directory for per-user checkpoints (`<dir>/<user_id>.ltesession`).
  /// Created if missing. Required.
  std::string checkpoint_dir;
  /// Per-session thread override forwarded to every `ExplorationSession` the
  /// manager creates. The default 1 is the multi-user serving convention:
  /// sessions themselves are the parallelism. -1 inherits the model's knob.
  int64_t session_num_threads = 1;
};

/// Running totals since construction, for benchmarks and capacity planning.
struct SessionManagerStats {
  /// Acquire found the session resident.
  int64_t hits = 0;
  /// Acquire built a fresh session (no checkpoint existed).
  int64_t creates = 0;
  /// Acquire restored an evicted session from its checkpoint.
  int64_t restores = 0;
  /// Sessions checkpointed and dropped from RAM to make room.
  int64_t evictions = 0;
  /// Evictions abandoned because the checkpoint write failed (the session
  /// stays resident — state is never dropped without a durable copy).
  int64_t eviction_failures = 0;
  /// High-water mark of concurrently resident sessions (> max_resident only
  /// while more than K sessions were pinned at once).
  int64_t peak_resident = 0;
};

/// LRU session cache over durable per-user state: the third leg of the
/// serving architecture (immutable shared model → PR 4, coalesced scans →
/// PR 6, and now evictable per-user sessions), mirroring the client-state
/// split of the mwt-ds decision service.
///
/// The manager owns up to K resident `ExplorationSession`s over any number
/// of known users. `Acquire` pins the user's session while a request is in
/// flight and transparently restores it from its checkpoint when it was
/// evicted (or creates it fresh on first contact — including first contact
/// *after a process restart*, when the checkpoint directory already holds
/// the user's state). When capacity is exceeded, the least-recently-used
/// unpinned session is checkpointed to disk and dropped.
///
///   ModelRegistry registry(model);
///   SessionManager manager(&registry,
///                          {.max_resident = 256,
///                           .checkpoint_dir = "/var/lte/sessions"});
///   SessionManager::Lease lease;
///   LTE_RETURN_IF_ERROR(manager.Acquire(user_id, &lease));
///   lease.session()->RetrieveMatches(table, 100, &matches);
///   // lease destructor unpins; the session becomes evictable again.
///
/// Model epochs: every session the manager creates or restores binds to the
/// registry's *current* snapshot at that moment and pins it for the
/// session's resident lifetime (RCU-style — a background `Publish` never
/// tears a model out from under a resident session). After a refresh,
/// restoring a checkpoint written under the old epoch returns
/// FailedPrecondition from the fingerprint stamp; the caller decides
/// whether to `RemoveUser` and start that user fresh, and
/// `SweepStaleCheckpoints` batch-GCs such checkpoints.
///
/// Durability: checkpoints are written to `<path>.tmp` and renamed into
/// place, so a crash mid-evict leaves the previous checkpoint intact — a
/// restart never sees a half-written session file (and the stale `.tmp` is
/// simply overwritten by the next eviction). An eviction whose write fails
/// keeps the session resident: state is never dropped without a durable
/// copy. The manager never checkpoints implicitly at destruction; call
/// `CheckpointAll` before shutdown for exactly-current durable state.
///
/// Determinism: evict/restore round-trips are byte-exact
/// (`ExplorationSession::Save/Load`), so any interleaving of evictions with
/// a user's requests returns byte-identical results to that user's session
/// staying resident throughout — enforced under TSan by
/// `SessionManagerTest.ChurnByteIdenticalUnderEviction`.
///
/// Thread-safety: all manager methods may be called concurrently from any
/// threads; internal state (including evict/restore I/O) is guarded by one
/// mutex, while leased sessions are used *outside* that mutex. Pinning makes
/// the handoff safe, not the session itself: a session is still
/// single-writer, so concurrent leases on the *same* user may only run const
/// queries concurrently — serialize a user's mutating calls (e.g. shard
/// users across request threads, as the tests do). Routing leased sessions
/// through a `CoalescedScanScheduler` is safe: the lease keeps the session
/// resident and un-evicted for the whole blocking submission.
class SessionManager {
 private:
  /// Map values are stable under rehash (node-based), so leases hold Entry
  /// pointers directly.
  struct Entry {
    std::unique_ptr<core::ExplorationSession> session;  // null = not resident.
    int64_t pins = 0;          // Leases outstanding; pinned ⇒ not evictable.
    uint64_t last_use = 0;     // LRU clock tick of the latest Acquire.
    bool on_disk = false;      // A checkpoint file exists for this user.
  };

 public:
  /// RAII pin on one user's session. Move-only; the destructor releases the
  /// pin (and lets the manager trim back to capacity). An empty lease —
  /// default-constructed, moved-from, or released — has session() == nullptr.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// The pinned session; nullptr when the lease is empty. Valid until
    /// Release()/destruction — the manager cannot evict a pinned session.
    core::ExplorationSession* session() const {
      return entry_ == nullptr ? nullptr : entry_->session.get();
    }
    bool valid() const { return entry_ != nullptr; }

    /// Unpins now (idempotent). The session pointer is invalid afterwards.
    void Release();

   private:
    friend class SessionManager;
    SessionManager* manager_ = nullptr;
    Entry* entry_ = nullptr;
  };

  /// Serves sessions bound to `registry`'s published epochs (`registry` not
  /// owned; must outlive the manager). Construction also unlinks any orphan
  /// `<user>.ltesession.tmp` files in the checkpoint directory — a crash
  /// between a checkpoint's tmp write and its rename leaves one behind, and
  /// it is dead weight by construction (the rename is what commits).
  /// Requires `options.max_resident >= 1` and a non-empty checkpoint_dir
  /// (programmer configuration, so violations abort rather than return).
  SessionManager(ModelRegistry* registry, SessionManagerOptions options);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Pins `user_id`'s session into `*lease` (any previous content of the
  /// lease is released first): resident sessions are handed out directly, a
  /// checkpointed session is restored from disk, and an unknown user gets a
  /// fresh session. May evict the LRU unpinned session first to make room.
  /// Fails (and leaves the lease empty) on an invalid user id — user ids
  /// name checkpoint files, so they are restricted to [A-Za-z0-9._-], no
  /// leading dot, at most 128 chars — or when a restore/eviction I/O error
  /// occurs; a failed restore keeps the checkpoint on disk untouched.
  Status Acquire(const std::string& user_id, Lease* lease);

  /// Checkpoints every resident session (pinned or not) without evicting,
  /// for graceful shutdown or periodic durability sweeps. Must not race with
  /// mutating calls on leased sessions (const queries are fine). Attempts
  /// every session; returns the first write error.
  Status CheckpointAll();

  /// Checkpoint GC for a departed user: drops the resident entry (if any)
  /// and unlinks the on-disk checkpoint and any stray `.tmp`. Fails with
  /// FailedPrecondition while the user's session is leased, with
  /// InvalidArgument on a malformed user id, and with IoError when an
  /// existing checkpoint cannot be removed; removing an unknown or
  /// checkpoint-less user succeeds as a no-op.
  Status RemoveUser(const std::string& user_id);

  /// Purges every checkpoint in the directory whose stamped model
  /// fingerprint differs from the registry's *current* one — the batch GC
  /// to run after a model refresh, when old-epoch checkpoints can never
  /// load again. Resident sessions are untouched (a resident entry whose
  /// checkpoint is purged is simply marked not-on-disk; its next eviction
  /// writes a fresh checkpoint). Files that are not readable session
  /// checkpoints are skipped, not deleted. Stores the number of purged
  /// checkpoints in `*removed` when non-null; returns the first unlink
  /// error, purging the rest regardless.
  Status SweepStaleCheckpoints(int64_t* removed);

  /// Sessions currently resident in RAM.
  int64_t resident_count() const;

  SessionManagerStats stats() const;

  const SessionManagerOptions& options() const { return options_; }
  ModelRegistry* registry() const { return registry_; }

  /// `<checkpoint_dir>/<user_id>.ltesession`.
  std::string CheckpointPath(const std::string& user_id) const;

 private:
  /// Atomic checkpoint write: Save to `<path>.tmp`, then rename into place.
  Status SaveCheckpointLocked(const core::ExplorationSession& session,
                              const std::string& user_id);

  /// Checkpoints and drops the LRU resident unpinned session. False when
  /// every resident session is pinned or the write failed (both leave
  /// residency above target; the next release/acquire retries).
  bool EvictOneLocked();

  /// Evicts until at most `target` sessions are resident (best effort).
  void TrimLocked(int64_t target);

  void ReleaseEntry(Entry* entry);

  ModelRegistry* registry_;
  SessionManagerOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  // Guarded by mu_.
  int64_t resident_ = 0;                            // Guarded by mu_.
  uint64_t tick_ = 0;                               // LRU clock; guarded.
  SessionManagerStats stats_;                       // Guarded by mu_.
};

}  // namespace lte::serving

#endif  // LTE_SERVING_SESSION_MANAGER_H_
