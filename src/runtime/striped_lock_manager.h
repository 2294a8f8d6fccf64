// Thread-safe shared/exclusive lock table for the live (wall-clock)
// engine: a thin threading layer over the one lock-table core.
//
// Architecture:
//   * entity e lives in stripe e & (stripes - 1), at row e >> log2(stripes)
//     of that stripe's LockManager — the same core the simulator runs per
//     site, so grant, queue, upgrade and wait-for decisions (and the
//     shared grant rule of DESIGN.md §11.5) exist exactly once. Adjacent
//     ids land on different stripes, and the lookup itself takes no lock;
//   * each stripe's latch guards its core. The core's grant and block
//     records are drained under that latch before it drops, so the layer
//     never reads a stale record;
//   * blocked requesters park on a per-transaction condition variable
//     paired with the stripe latch, so a release wakes exactly the
//     transactions the core granted (no thundering herd).
//
// Conflict policies:
//   * kBlock is the paper's certified fast path: a conflicting request
//     parks until granted — no timestamps are consulted, no timeout ever
//     fires, no wait-for graph is ever built. The only extra wake source
//     is RequestStop(), used by the engine's shutdown/watchdog path.
//   * kWoundWait / kWaitDie are the Rosenkrantz-Stearns-Lewis timestamp
//     baselines: each block record the core emits (one per new wait-for
//     edge) is resolved by timestamp, aborting the younger party (Acquire
//     returns kAborted; the caller must release its locks and retry with
//     the same timestamp). Records are drained on every path, immediate
//     grants included: a shared grant past queued writers adds edges.
//   * kDetect scans on block (InnoDB-style): a parking waiter snapshots
//     the global wait-for graph (all stripes latched in index order) and
//     aborts the youngest transaction on each cycle (DeadlockVictims),
//     then re-scans every detect_interval_us while it stays parked.
//
// The manager resolves conflicts but never aborts anything itself: an
// aborted Acquire returns kAborted and the CALLER releases held locks via
// Release/ReleaseAll and retries after BeginAttempt.
#ifndef WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_
#define WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/database.h"
#include "core/transaction.h"
#include "runtime/lock_manager.h"
#include "runtime/scheduler.h"

namespace wydb {

class StripedLockManager {
 public:
  enum class AcquireStatus : uint8_t {
    kGranted,  ///< The caller now holds the entity in the requested mode.
    kAborted,  ///< Policy decided against the caller (wound / die / victim)
               ///< or RequestAbort was called: release everything, retry.
    kStopped,  ///< RequestStop happened: unwind without retrying.
  };

  struct Options {
    ConflictPolicy policy = ConflictPolicy::kBlock;
    /// Number of latch stripes (rounded up to a power of two; 0 = auto:
    /// a small multiple of the hardware concurrency).
    int num_stripes = 0;
    /// kDetect only: how long a parked waiter waits before re-running
    /// the wait-for cycle scan (the first scan runs at park time).
    /// Ignored by every other policy.
    int64_t detect_interval_us = 2000;
  };

  /// `num_entities` sizes the lock table, `num_txns` the per-transaction
  /// park slots. Transaction ids are 0..num_txns-1.
  StripedLockManager(int num_entities, int num_txns, const Options& options);

  /// Blocking acquire in `mode`. Returns kGranted once the caller holds
  /// `entity`, kAborted if the conflict policy (or RequestAbort) turned
  /// the caller into a victim, kStopped after RequestStop. An exclusive
  /// request by a current sharer is an UPGRADE (granted at once if sole
  /// sharer, else queued at the head while the shared hold is kept). Must
  /// not be called while the caller already waits elsewhere (one
  /// outstanding Acquire per transaction), nor for a hold the caller
  /// already has in `mode` or a stronger one.
  AcquireStatus Acquire(int txn, EntityId entity,
                        LockMode mode = LockMode::kExclusive);

  /// Releases `entity` if `txn` holds it in either mode (stale releases
  /// tolerated) and grants the waiters that became compatible.
  void Release(int txn, EntityId entity);

  /// Abort/commit cleanup: releases every entity in `held` that `txn`
  /// still holds.
  void ReleaseAll(int txn, const std::vector<EntityId>& held);

  /// Clears txn's pending-abort flag; call before each fresh attempt.
  void BeginAttempt(int txn);

  /// Marks `txn` a victim: its current or next Acquire returns kAborted.
  /// Wakes it if it is parked. Never call while holding engine locks that
  /// a parked transaction could be blocked under.
  void RequestAbort(int txn);

  /// Wakes every parked transaction with kStopped and fails all future
  /// Acquires. Idempotent.
  void RequestStop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Timestamp consulted by kWoundWait/kWaitDie (smaller = older). Set
  /// before the transaction's first request; stable across restarts (the
  /// RSL policies' no-livelock argument needs that).
  void SetTimestamp(int txn, uint64_t ts) { timestamp_[txn] = ts; }

  ConflictPolicy policy() const { return options_.policy; }
  int num_stripes() const { return static_cast<int>(stripes_.size()); }

  /// Completed lock operations (grants returned to callers + releases).
  /// Cheap (relaxed counter sum); safe to call concurrently.
  uint64_t lock_ops() const {
    return grants_.load(std::memory_order_relaxed) +
           releases_.load(std::memory_order_relaxed);
  }
  uint64_t grants() const { return grants_.load(std::memory_order_relaxed); }
  /// Shared-mode grants returned to callers (subset of grants()).
  uint64_t shared_grants() const {
    return shared_grants_.load(std::memory_order_relaxed);
  }
  /// Completed S->X upgrades (subset of grants()).
  uint64_t upgrades() const {
    return upgrades_.load(std::memory_order_relaxed);
  }
  /// Upgrade attempts that ended in kAborted.
  uint64_t upgrade_aborts() const {
    return upgrade_aborts_.load(std::memory_order_relaxed);
  }
  /// kDetect: wait-for scans run by timed-out waiters.
  uint64_t detector_runs() const {
    return detector_runs_.load(std::memory_order_relaxed);
  }
  /// Aborts decided by the conflict policy (not RequestAbort).
  uint64_t policy_aborts() const {
    return policy_aborts_.load(std::memory_order_relaxed);
  }

  // --- Introspection (latches stripes; not for hot paths). ---------------

  /// The exclusive holder if there is one, else an arbitrary shared
  /// holder, else -1. Use IsHolding for membership under shared modes.
  int HolderOf(EntityId entity) const;
  /// True iff `txn` holds `entity` in either mode.
  bool IsHolding(int txn, EntityId entity) const;
  /// Number of shared holders of `entity` (0 when exclusively held/free).
  int SharerCountOf(EntityId entity) const;

  using WaitEdge = LockManager::WaitEdge;
  /// Consistent snapshot of the wait-for relation (latches every stripe
  /// in index order): one edge per conflicting holder — all sharers for a
  /// queued exclusive request; an upgrader never waits on itself.
  std::vector<WaitEdge> WaitForEdges() const;

 private:
  /// One latch and the core it guards. `records` collects the core's
  /// grant/block records until the latch holder drains them.
  struct alignas(64) Stripe {
    explicit Stripe(int rows) : core(/*site=*/0, rows, &records) {}
    mutable std::mutex mu;
    std::vector<LockEvent> records;
    LockManager core;
  };

  /// One park slot per transaction. `granted` and `upgrade` are guarded
  /// by the latch of the stripe the transaction is requesting on.
  struct alignas(64) ParkSlot {
    std::condition_variable cv;
    uint8_t granted = 0;
    bool upgrade = false;  ///< From the core's kGrant record.
    std::atomic<uint8_t> abort{0};
    /// Entity this transaction is parked on (set under the stripe latch
    /// before the first predicate check, cleared under it on wake).
    /// Atomic so RequestAbort can chase the parking spot latch-free.
    std::atomic<EntityId> parked_on{kInvalidEntity};
  };

  Stripe& StripeOf(EntityId e) const {
    return *stripes_[static_cast<size_t>(e) & (stripes_.size() - 1)];
  }
  EntityId RowOf(EntityId e) const { return e >> stripe_bits_; }

  /// Applies the drained records of `stripe` (latch held): wakes granted
  /// waiters and resolves each block record by timestamp. Wounded holders
  /// may be parked on OTHER stripes and cannot be woken under this latch;
  /// their ids are appended to *wounds (flag already set) for WakeAll
  /// AFTER the latch drops.
  void Drain(Stripe& stripe, std::vector<int>* wounds);

  /// Parks txn, already queued on `entity`, until granted/aborted/stopped.
  /// `lk` holds the stripe latch. Returns with the request either granted
  /// or gone from the queue and parked_on cleared. May return with `lk`
  /// unlocked (give-back wound delivery).
  AcquireStatus Park(int txn, EntityId entity, LockMode mode,
                     std::unique_lock<std::mutex>& lk);

  void CountGrant(LockMode mode, bool upgrade);

  /// Sets txn's abort flag (counting the policy abort on the 0->1 edge)
  /// and notifies its cv. Safe under any latch; pair with a latch-free
  /// WakeIfParked when txn may be parked on another stripe.
  void FlagPolicyAbort(int txn);

  /// kDetect: snapshot the wait-for graph and abort the youngest
  /// transaction on each cycle, if any. Caller holds no stripe latch.
  void RunDetector();

  /// Notifies txn under its parking stripe's latch if it is parked.
  /// Caller holds no stripe latch.
  void WakeIfParked(int txn);
  void WakeAll(const std::vector<int>& txns) {
    for (int t : txns) WakeIfParked(t);
  }

  /// Every stripe latch, in index order (the one place two stripe latches
  /// are ever held together; ordered, so no latch cycle).
  std::vector<std::unique_lock<std::mutex>> LatchAll() const;
  /// The wait-for edges of every stripe, in entity ids. All latches held.
  std::vector<WaitEdge> EdgesLatched() const;

  bool AbortRequested(int txn) const {
    return slots_[txn].abort.load(std::memory_order_acquire) != 0;
  }

  Options options_;
  int num_txns_;
  int stripe_bits_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::unique_ptr<ParkSlot[]> slots_;
  std::vector<uint64_t> timestamp_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> grants_{0};
  std::atomic<uint64_t> shared_grants_{0};
  std::atomic<uint64_t> upgrades_{0};
  std::atomic<uint64_t> upgrade_aborts_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> detector_runs_{0};
  std::atomic<uint64_t> policy_aborts_{0};
  /// Serializes kDetect scans (one timed-out waiter scans at a time).
  std::mutex detect_mu_;
};

}  // namespace wydb

#endif  // WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_
