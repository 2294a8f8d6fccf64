#include "runtime/striped_lock_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/macros.h"
#include "graph/digraph.h"

namespace wydb {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

StripedLockManager::StripedLockManager(int num_entities, int num_txns,
                                       const Options& options)
    : options_(options), num_txns_(num_txns) {
  WYDB_DCHECK(num_entities >= 0);
  WYDB_DCHECK(num_txns > 0);
  size_t stripes = options.num_stripes > 0
                       ? RoundUpPow2(static_cast<size_t>(options.num_stripes))
                       : RoundUpPow2(std::max<size_t>(
                             8, 2 * std::thread::hardware_concurrency()));
  stripes = std::min(stripes, RoundUpPow2(std::max(1, num_entities)));
  while ((size_t{1} << stripe_bits_) < stripes) ++stripe_bits_;
  const int rows = static_cast<int>(
      (static_cast<size_t>(num_entities) + stripes - 1) >> stripe_bits_);
  for (size_t s = 0; s < stripes; ++s) {
    stripes_.push_back(std::make_unique<Stripe>(rows));
  }
  slots_ = std::make_unique<ParkSlot[]>(num_txns);
  timestamp_.assign(num_txns, 0);
}

void StripedLockManager::CountGrant(LockMode mode, bool upgrade) {
  grants_.fetch_add(1, std::memory_order_relaxed);
  if (upgrade) {
    upgrades_.fetch_add(1, std::memory_order_relaxed);
  } else if (mode == LockMode::kShared) {
    shared_grants_.fetch_add(1, std::memory_order_relaxed);
  }
}

void StripedLockManager::FlagPolicyAbort(int txn) {
  if (slots_[txn].abort.exchange(1, std::memory_order_seq_cst) == 0)
    policy_aborts_.fetch_add(1, std::memory_order_relaxed);
  slots_[txn].cv.notify_all();
}

void StripedLockManager::Drain(Stripe& stripe, std::vector<int>* wounds) {
  const bool timestamps = options_.policy == ConflictPolicy::kWoundWait ||
                          options_.policy == ConflictPolicy::kWaitDie;
  for (const LockEvent& r : stripe.records) {
    if (r.kind == LockEvent::Kind::kGrant) {
      slots_[r.txn].granted = 1;
      slots_[r.txn].upgrade = r.upgrade;
      slots_[r.txn].cv.notify_one();
      continue;
    }
    // A block record: one per new wait-for edge, so an older wound-wait
    // waiter wounds fresh holders and a younger wait-die waiter dies
    // instead of waiting behind older ones.
    if (!timestamps) continue;
    switch (ResolveConflict(options_.policy, timestamp_[r.txn],
                            timestamp_[r.holder])) {
      case ConflictAction::kWait:
        break;
      case ConflictAction::kAbortRequester:
        FlagPolicyAbort(r.txn);  // Queued here: woken under this latch.
        break;
      case ConflictAction::kAbortHolder:
        FlagPolicyAbort(r.holder);
        wounds->push_back(r.holder);
        break;
    }
  }
  stripe.records.clear();
}

StripedLockManager::AcquireStatus StripedLockManager::Acquire(int txn,
                                                              EntityId entity,
                                                              LockMode mode) {
  if (stop_.load(std::memory_order_acquire)) return AcquireStatus::kStopped;
  if (AbortRequested(txn)) return AcquireStatus::kAborted;
  Stripe& stripe = StripeOf(entity);
  ParkSlot& slot = slots_[txn];
  std::unique_lock<std::mutex> lk(stripe.mu);
  slot.granted = 0;
  stripe.core.Request(txn, RowOf(entity), mode);
  // The core answers with our grant (then blocks for the queued requests
  // a shared grant passed) or with our own block records.
  std::vector<int> wounds;
  Drain(stripe, &wounds);
  if (slot.granted) {
    const bool upgrade = slot.upgrade;
    lk.unlock();
    WakeAll(wounds);
    CountGrant(mode, upgrade);
    return AcquireStatus::kGranted;
  }
  slot.parked_on.store(entity, std::memory_order_seq_cst);
  if (!wounds.empty()) {
    // Wounds are delivered AFTER this stripe's latch is dropped: a
    // wounded holder may be parked on a different stripe, and waking it
    // there while holding this latch would be a latch-order inversion.
    // The queue slot keeps our claim in the window.
    lk.unlock();
    WakeAll(wounds);
    lk.lock();
  }
  return Park(txn, entity, mode, lk);
}

StripedLockManager::AcquireStatus StripedLockManager::Park(
    int txn, EntityId entity, LockMode mode,
    std::unique_lock<std::mutex>& lk) {
  Stripe& stripe = StripeOf(entity);
  ParkSlot& slot = slots_[txn];
  const bool timed = options_.policy == ConflictPolicy::kDetect;
  const auto interval = std::chrono::microseconds(
      std::max<int64_t>(1, options_.detect_interval_us));
  // Scan on block (the industrial baseline: InnoDB-style detection on
  // every lock wait). A live system cannot observe quiescence the way the
  // discrete-event engine does, so the detector runs the moment a waiter
  // parks — that is detection's hot-path price — and again after every
  // full interval the waiter stays stuck.
  bool scan = timed;
  for (;;) {
    const bool stopped = stop_.load(std::memory_order_acquire);
    const bool aborted = AbortRequested(txn);
    if (slot.granted || stopped || aborted) {
      slot.parked_on.store(kInvalidEntity, std::memory_order_seq_cst);
      if (!stopped && !aborted) {
        CountGrant(mode, slot.upgrade);
        return AcquireStatus::kGranted;
      }
      // A pending abort or stop wins over a grant: give the hold straight
      // back; a request still queued just leaves the queue.
      std::vector<int> wounds;
      bool upgrade;
      if (slot.granted) {
        upgrade = slot.upgrade;
        slot.granted = 0;
        stripe.core.Release(txn, RowOf(entity));
        Drain(stripe, &wounds);
      } else {
        upgrade = stripe.core.Cancel(txn, RowOf(entity));
      }
      if (!stopped && upgrade)
        upgrade_aborts_.fetch_add(1, std::memory_order_relaxed);
      if (!wounds.empty()) {
        lk.unlock();
        WakeAll(wounds);
      }
      return stopped ? AcquireStatus::kStopped : AcquireStatus::kAborted;
    }
    if (scan) {
      // The scan latches every stripe, so ours must be dropped first; the
      // queue slot keeps our claim while unlatched.
      lk.unlock();
      RunDetector();
      lk.lock();
      scan = false;
    } else if (timed) {
      scan = slot.cv.wait_for(lk, interval) == std::cv_status::timeout;
    } else {
      slot.cv.wait(lk);
    }
  }
}

void StripedLockManager::Release(int txn, EntityId entity) {
  std::vector<int> wounds;
  {
    Stripe& stripe = StripeOf(entity);
    std::lock_guard<std::mutex> lk(stripe.mu);
    if (!stripe.core.Release(txn, RowOf(entity))) return;  // Stale.
    releases_.fetch_add(1, std::memory_order_relaxed);
    Drain(stripe, &wounds);
  }
  WakeAll(wounds);
}

void StripedLockManager::ReleaseAll(int txn,
                                    const std::vector<EntityId>& held) {
  for (EntityId e : held) Release(txn, e);
}

void StripedLockManager::BeginAttempt(int txn) {
  slots_[txn].abort.store(0, std::memory_order_seq_cst);
}

void StripedLockManager::RequestAbort(int txn) {
  slots_[txn].abort.store(1, std::memory_order_seq_cst);
  WakeIfParked(txn);
}

void StripedLockManager::WakeIfParked(int txn) {
  // The abort-flag store and the parked_on stores in Acquire/Park are
  // all seq_cst, and the waiter re-checks the flag under the stripe
  // latch before every wait: either we observe its parking spot here and
  // notify under that latch, or the waiter's predicate check happens
  // after the flag store and sees the flag itself. The loop handles the
  // waiter migrating between the loads.
  for (;;) {
    EntityId e = slots_[txn].parked_on.load(std::memory_order_seq_cst);
    if (e == kInvalidEntity) return;
    std::lock_guard<std::mutex> lk(StripeOf(e).mu);
    if (slots_[txn].parked_on.load(std::memory_order_seq_cst) == e) {
      slots_[txn].cv.notify_all();
      return;
    }
  }
}

void StripedLockManager::RequestStop() {
  stop_.store(true, std::memory_order_seq_cst);
  // With every latch held, a waiter is either asleep (and gets the
  // notify) or re-checks stop_ under its latch before it sleeps.
  auto latches = LatchAll();
  for (int t = 0; t < num_txns_; ++t) slots_[t].cv.notify_all();
}

std::vector<std::unique_lock<std::mutex>> StripedLockManager::LatchAll()
    const {
  std::vector<std::unique_lock<std::mutex>> latches;
  latches.reserve(stripes_.size());
  for (const auto& stripe : stripes_) latches.emplace_back(stripe->mu);
  return latches;
}

std::vector<StripedLockManager::WaitEdge> StripedLockManager::EdgesLatched()
    const {
  std::vector<WaitEdge> edges;
  for (size_t s = 0; s < stripes_.size(); ++s) {
    const size_t from = edges.size();
    stripes_[s]->core.AppendWaitForEdges(&edges);
    for (size_t i = from; i < edges.size(); ++i) {
      edges[i].entity =
          static_cast<EntityId>((static_cast<size_t>(edges[i].entity)
                                 << stripe_bits_) | s);
    }
  }
  return edges;
}

void StripedLockManager::RunDetector() {
  std::lock_guard<std::mutex> detect_lk(detect_mu_);
  if (stop_.load(std::memory_order_acquire)) return;
  detector_runs_.fetch_add(1, std::memory_order_relaxed);
  auto latches = LatchAll();
  Digraph wait_for(num_txns_);
  for (const WaitEdge& e : EdgesLatched()) wait_for.AddArc(e.waiter, e.holder);
  // The youngest on each cycle; their stripe latches are held (all are).
  for (NodeId victim : DeadlockVictims(wait_for, timestamp_)) {
    FlagPolicyAbort(victim);
  }
}

int StripedLockManager::HolderOf(EntityId entity) const {
  const Stripe& stripe = StripeOf(entity);
  std::lock_guard<std::mutex> lk(stripe.mu);
  return stripe.core.HolderOf(RowOf(entity));
}

bool StripedLockManager::IsHolding(int txn, EntityId entity) const {
  const Stripe& stripe = StripeOf(entity);
  std::lock_guard<std::mutex> lk(stripe.mu);
  return stripe.core.IsHolding(txn, RowOf(entity));
}

int StripedLockManager::SharerCountOf(EntityId entity) const {
  const Stripe& stripe = StripeOf(entity);
  std::lock_guard<std::mutex> lk(stripe.mu);
  return stripe.core.SharerCountOf(RowOf(entity));
}

std::vector<StripedLockManager::WaitEdge> StripedLockManager::WaitForEdges()
    const {
  auto latches = LatchAll();
  return EdgesLatched();
}

}  // namespace wydb
