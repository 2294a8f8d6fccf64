// Shared/exclusive lock table: the one grant/queue/upgrade state machine
// of the runtime. The simulator runs one per site; the live engine's
// StripedLockManager runs one per latch stripe and adds the threading.
//
// Data-oriented layout: the table is a dense vector indexed by EntityId;
// waiters AND shared-holder records live in one pooled free-list and both
// queues and sharer sets are intrusive index links. The table takes no
// latches and never calls back into its user; instead operations append
// POD LockEvent records to an output buffer the user drains after each
// call. This keeps the hot path allocation-free and free of re-entrancy.
//
// Grant rule (DESIGN.md §11.5), the one the paper's model, Theorem 4 and
// the exact checkers assume: a request is granted iff it is compatible
// with the current holders — any number of shared holders OR one
// exclusive holder — whatever is queued. Whenever holders leave, the
// queue is scanned in order and every waiter compatible with the holders
// at that point is granted: a lone X at the head, or every queued S. So
// every queued request conflicts with some current holder, X waiters
// stay FIFO among themselves, and a steady stream of readers can delay a
// writer. An S->X upgrade keeps its shared hold and jumps to the queue
// HEAD; it is promoted the moment it is the sole remaining sharer. Two
// sharers upgrading the same entity therefore deadlock on each other —
// visible to the caller as wait-for edges (each waits on every
// conflicting holder) and resolvable by the usual policies.
#ifndef WYDB_RUNTIME_LOCK_MANAGER_H_
#define WYDB_RUNTIME_LOCK_MANAGER_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/transaction.h"

namespace wydb {

/// \brief POD record emitted by lock-table operations.
///
/// `kGrant`: `txn` now holds `entity`; `node`/`attempt` echo the waiter
/// payload passed to Request (the Lock step being served), and `upgrade`
/// says whether the grant promoted `txn`'s shared hold to exclusive. The
/// engine must validate `attempt` against the executor and give the lock
/// back if the attempt went stale while the grant was pending.
///
/// `kBlock`: `txn` is queued on `entity` behind `holder`. With shared
/// holders one record is emitted PER conflicting holder, so a timestamp
/// policy resolves the request against each of them. Emitted for every
/// new wait-for edge: when a request queues, for every remaining waiter
/// when a release grants someone, and for every queued waiter when a
/// shared request is granted past it. The engine must re-validate the
/// edge (holder still holds, txn still waiting) at processing time: the
/// table may have moved on while the record sat in the buffer.
struct LockEvent {
  enum class Kind : uint8_t { kGrant, kBlock };
  Kind kind;
  bool upgrade;  ///< Grant only: an S->X upgrade.
  SiteId site;
  int32_t txn;
  EntityId entity;
  int32_t node;     ///< Grant only: waiter payload.
  int32_t attempt;  ///< Grant only: waiter payload.
  int32_t holder;   ///< Block only: the transaction being waited on.
};

/// \brief Shared/exclusive locks for a dense range of entity ids.
///
/// The manager is purely mechanical: grant if compatible, queue if not.
/// Policy (wound-wait etc.) is applied by the caller by reacting to the
/// kBlock records and issuing Abort or Cancel.
class LockManager {
 public:
  /// `num_entities` sizes the dense table (global entity id space; rows
  /// for entities of other sites stay untouched). Events are appended to
  /// `*out`, which must outlive the manager. `site` is echoed in records.
  LockManager(SiteId site, int num_entities, std::vector<LockEvent>* out);

  SiteId site() const { return site_; }

  /// Requests a lock in `mode` for transaction `txn`, which must not
  /// already hold `entity` in that mode or a stronger one. Emits kGrant
  /// if compatible with the current holders (then kBlock for each queued
  /// request the new sharer now blocks), else queues and emits kBlock
  /// per conflicting holder. An exclusive request by a current sharer is
  /// an UPGRADE: granted at once if `txn` is the sole sharer, otherwise
  /// queued at the head while the shared hold is kept. `node` and
  /// `attempt` are opaque payload echoed in the grant record.
  void Request(int txn, EntityId entity, LockMode mode, int32_t node = -1,
               int32_t attempt = 0);
  /// Back-compat: exclusive request.
  void Request(int txn, EntityId entity, int32_t node = -1,
               int32_t attempt = 0) {
    Request(txn, entity, LockMode::kExclusive, node, attempt);
  }

  /// Releases `entity` if `txn` holds it in either mode and grants the
  /// waiters that became compatible. False (and a no-op) if `txn` held
  /// nothing there — stale release messages from aborted attempts are
  /// tolerated.
  bool Release(int txn, EntityId entity);

  /// Drops `txn`'s queued request on `entity`, if any, keeping its holds.
  /// Never grants anything: every other waiter still conflicts with a
  /// holder. True iff the dropped request was an upgrade (counted in
  /// upgrade_aborts()).
  bool Cancel(int txn, EntityId entity);

  /// Aborts `txn`: Cancel plus Release on every entity it touched.
  void Abort(int txn);

  /// An exclusive holder if there is one, else an arbitrary shared holder,
  /// else -1. Use IsHolding for membership tests under shared modes.
  int HolderOf(EntityId entity) const {
    const LockState& s = table_[entity];
    if (s.holder != -1) return s.holder;
    return s.sharer_head == -1 ? -1 : pool_[s.sharer_head].txn;
  }

  /// True iff `txn` holds `entity` in either mode.
  bool IsHolding(int txn, EntityId entity) const;
  /// Number of shared holders of `entity` (0 when exclusively held/free).
  int SharerCountOf(EntityId entity) const;

  bool IsWaiting(int txn) const;
  bool IsWaitingOn(int txn, EntityId entity) const;

  /// (waiter, holder, entity) edges of the wait-for relation: one edge per
  /// conflicting holder (all sharers for a queued X request; an upgrader
  /// never waits on itself).
  struct WaitEdge {
    int waiter;
    int holder;
    EntityId entity;
  };
  std::vector<WaitEdge> WaitForEdges() const;
  void AppendWaitForEdges(std::vector<WaitEdge>* out) const;

  uint64_t grants() const { return grants_; }
  /// Shared-mode grants (each granted S request counts once).
  uint64_t shared_grants() const { return shared_grants_; }
  /// Completed S->X upgrades.
  uint64_t upgrades() const { return upgrades_; }
  /// Queued upgrades abandoned by Cancel or Abort.
  uint64_t upgrade_aborts() const { return upgrade_aborts_; }

  /// Waiter-pool introspection (tests): the pool must plateau at the
  /// high-water mark of simultaneous waiters + shared holders — churn
  /// recycles slots through the free list instead of growing the vector.
  size_t waiter_pool_size() const { return pool_.size(); }
  /// Free-listed (recyclable) slots; equals waiter_pool_size() when no
  /// transaction is queued or sharing anywhere.
  size_t free_waiter_count() const;

 private:
  struct Waiter {
    int32_t txn;
    int32_t node;
    int32_t attempt;
    int32_t next;  ///< Pool index of the next waiter/sharer, or -1.
    LockMode mode;
    bool upgrade;  ///< Queued S->X upgrade: still holds S on the entity.
  };
  struct LockState {
    int32_t holder = -1;       ///< Exclusive holder, or -1.
    int32_t sharer_head = -1;  ///< Pool index of the first sharer, or -1.
    int32_t head = -1;         ///< Pool index of the first waiter, or -1.
    int32_t tail = -1;
  };

  int32_t AllocWaiter(const Waiter& w);
  void FreeWaiter(int32_t idx);
  /// Removes waiter `idx` (preceded by `prev`, or -1 at the head).
  void Unlink(LockState& state, int32_t prev, int32_t idx);
  void AddSharer(LockState& state, int txn);
  bool RemoveSharer(LockState& state, int txn);
  bool IsSharer(const LockState& state, int txn) const;
  bool SoleSharerIs(const LockState& state, int txn) const;
  /// The grant rule: `w` is compatible with the current holders.
  bool Grantable(const LockState& state, const Waiter& w) const;
  /// Makes `w` a holder of `entity` and emits its kGrant.
  void Grant(EntityId entity, const Waiter& w);
  /// Grants every queued request compatible with the holders, in queue
  /// order, and re-emits kBlock for the remaining waiters against the new
  /// holders.
  void GrantWaiters(EntityId entity);
  /// kBlock for every waiter on `entity` against its new holder `txn`.
  void EmitBlocksAgainst(EntityId entity, int32_t txn);
  void EmitBlock(EntityId entity, int32_t txn, int32_t holder);
  /// One kBlock per current conflicting holder of `entity` (skips `txn`
  /// itself so an upgrader never waits on its own shared hold).
  void EmitBlocksAgainstHolders(EntityId entity, int32_t txn);
  void Touch(EntityId entity);

  SiteId site_;
  std::vector<LockState> table_;
  std::vector<Waiter> pool_;
  int32_t free_head_ = -1;
  /// Entities this manager has ever touched (sparse iteration support for
  /// Abort / WaitForEdges without scanning the whole dense table).
  std::vector<EntityId> touched_;
  std::vector<uint8_t> is_touched_;
  std::vector<LockEvent>* out_;
  uint64_t grants_ = 0;
  uint64_t shared_grants_ = 0;
  uint64_t upgrades_ = 0;
  uint64_t upgrade_aborts_ = 0;
};

}  // namespace wydb

#endif  // WYDB_RUNTIME_LOCK_MANAGER_H_
