#include "runtime/lock_manager.h"

namespace wydb {

LockManager::LockManager(SiteId site, int num_entities,
                         std::vector<LockEvent>* out)
    : site_(site),
      table_(num_entities),
      is_touched_(num_entities, 0),
      out_(out) {}

void LockManager::Touch(EntityId entity) {
  if (!is_touched_[entity]) {
    is_touched_[entity] = 1;
    touched_.push_back(entity);
  }
}

int32_t LockManager::AllocWaiter(const Waiter& w) {
  int32_t idx;
  if (free_head_ != -1) {
    idx = free_head_;
    free_head_ = pool_[idx].next;
  } else {
    idx = static_cast<int32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx] = w;
  pool_[idx].next = -1;
  return idx;
}

void LockManager::FreeWaiter(int32_t idx) {
  pool_[idx].next = free_head_;
  free_head_ = idx;
}

size_t LockManager::free_waiter_count() const {
  size_t count = 0;
  for (int32_t idx = free_head_; idx != -1; idx = pool_[idx].next) ++count;
  return count;
}

void LockManager::Unlink(LockState& state, int32_t prev, int32_t idx) {
  (prev == -1 ? state.head : pool_[prev].next) = pool_[idx].next;
  if (state.tail == idx) state.tail = prev;
}

void LockManager::AddSharer(LockState& state, int txn) {
  int32_t idx = AllocWaiter(Waiter{txn, -1, 0, -1, LockMode::kShared, false});
  pool_[idx].next = state.sharer_head;
  state.sharer_head = idx;
}

bool LockManager::RemoveSharer(LockState& state, int txn) {
  int32_t prev = -1;
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn == txn) {
      (prev == -1 ? state.sharer_head : pool_[prev].next) = pool_[s].next;
      FreeWaiter(s);
      return true;
    }
    prev = s;
  }
  return false;
}

bool LockManager::IsSharer(const LockState& state, int txn) const {
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn == txn) return true;
  }
  return false;
}

bool LockManager::SoleSharerIs(const LockState& state, int txn) const {
  return state.sharer_head != -1 && pool_[state.sharer_head].txn == txn &&
         pool_[state.sharer_head].next == -1;
}

bool LockManager::Grantable(const LockState& state, const Waiter& w) const {
  if (state.holder != -1) return false;
  if (w.upgrade) return SoleSharerIs(state, w.txn);
  return w.mode == LockMode::kShared || state.sharer_head == -1;
}

void LockManager::Grant(EntityId entity, const Waiter& w) {
  LockState& state = table_[entity];
  if (w.upgrade) {
    RemoveSharer(state, w.txn);
    state.holder = w.txn;
    ++upgrades_;
  } else if (w.mode == LockMode::kShared) {
    AddSharer(state, w.txn);
    ++shared_grants_;
  } else {
    state.holder = w.txn;
  }
  ++grants_;
  out_->push_back(LockEvent{LockEvent::Kind::kGrant, w.upgrade, site_, w.txn,
                            entity, w.node, w.attempt, -1});
}

void LockManager::EmitBlock(EntityId entity, int32_t txn, int32_t holder) {
  out_->push_back(LockEvent{LockEvent::Kind::kBlock, false, site_, txn,
                            entity, -1, 0, holder});
}

void LockManager::EmitBlocksAgainst(EntityId entity, int32_t txn) {
  for (int32_t w = table_[entity].head; w != -1; w = pool_[w].next) {
    if (pool_[w].txn != txn) EmitBlock(entity, pool_[w].txn, txn);
  }
}

void LockManager::EmitBlocksAgainstHolders(EntityId entity, int32_t txn) {
  const LockState& state = table_[entity];
  if (state.holder != -1) {
    if (state.holder != txn) EmitBlock(entity, txn, state.holder);
    return;
  }
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn != txn) EmitBlock(entity, txn, pool_[s].txn);
  }
}

void LockManager::Request(int txn, EntityId entity, LockMode mode,
                          int32_t node, int32_t attempt) {
  Touch(entity);
  LockState& state = table_[entity];
  const bool upgrade = mode == LockMode::kExclusive && IsSharer(state, txn);
  const Waiter w{txn, node, attempt, -1, mode, upgrade};
  if (Grantable(state, w)) {
    Grant(entity, w);
    // A shared grant can pass queued requests: each is an X or upgrade
    // request, so it now waits on the new sharer too. Without these
    // records a timestamp policy never learns of that edge.
    if (mode == LockMode::kShared) EmitBlocksAgainst(entity, txn);
    return;
  }
  const int32_t idx = AllocWaiter(w);
  if (w.upgrade) {
    // The upgrade keeps its shared hold and queues at the HEAD: no later
    // X waiter can be granted before it anyway, and two queued upgrades
    // on one entity are a genuine deadlock the caller resolves.
    pool_[idx].next = state.head;
    state.head = idx;
    if (state.tail == -1) state.tail = idx;
  } else if (state.tail == -1) {
    state.head = state.tail = idx;
  } else {
    pool_[state.tail].next = idx;
    state.tail = idx;
  }
  EmitBlocksAgainstHolders(entity, txn);
}

bool LockManager::Release(int txn, EntityId entity) {
  LockState& state = table_[entity];
  if (state.holder == txn) {
    state.holder = -1;
  } else if (!RemoveSharer(state, txn)) {
    return false;
  }
  GrantWaiters(entity);
  return true;
}

void LockManager::GrantWaiters(EntityId entity) {
  LockState& state = table_[entity];
  bool granted_any = false;
  // Once an X hold is granted, nothing further is compatible.
  for (int32_t prev = -1, idx = state.head; idx != -1 && state.holder == -1;) {
    const Waiter w = pool_[idx];
    if (!Grantable(state, w)) {
      prev = idx;
    } else {
      Unlink(state, prev, idx);
      FreeWaiter(idx);
      Grant(entity, w);
      granted_any = true;
    }
    idx = w.next;
  }
  if (!granted_any) return;
  // Holdership changed: re-emit block records for the remaining waiters so
  // the caller re-applies the conflict policy against the NEW holders.
  // Without this, wound-wait admits wait cycles: an old transaction queued
  // behind a young one inherits an old->young wait edge when the young
  // waiter is granted first.
  for (int32_t w = state.head; w != -1; w = pool_[w].next) {
    EmitBlocksAgainstHolders(entity, pool_[w].txn);
  }
}

bool LockManager::Cancel(int txn, EntityId entity) {
  LockState& state = table_[entity];
  bool upgrade = false;
  for (int32_t prev = -1, w = state.head; w != -1;) {
    const int32_t next = pool_[w].next;
    if (pool_[w].txn == txn) {
      upgrade |= pool_[w].upgrade;
      Unlink(state, prev, w);
      FreeWaiter(w);
    } else {
      prev = w;
    }
    w = next;
  }
  upgrade_aborts_ += upgrade;
  return upgrade;
}

void LockManager::Abort(int txn) {
  for (EntityId entity : touched_) {
    Cancel(txn, entity);
    Release(txn, entity);
  }
}

bool LockManager::IsHolding(int txn, EntityId entity) const {
  const LockState& state = table_[entity];
  return state.holder == txn || IsSharer(state, txn);
}

int LockManager::SharerCountOf(EntityId entity) const {
  int count = 0;
  for (int32_t s = table_[entity].sharer_head; s != -1; s = pool_[s].next) {
    ++count;
  }
  return count;
}

bool LockManager::IsWaiting(int txn) const {
  for (EntityId entity : touched_) {
    if (IsWaitingOn(txn, entity)) return true;
  }
  return false;
}

bool LockManager::IsWaitingOn(int txn, EntityId entity) const {
  for (int32_t w = table_[entity].head; w != -1; w = pool_[w].next) {
    if (pool_[w].txn == txn) return true;
  }
  return false;
}

std::vector<LockManager::WaitEdge> LockManager::WaitForEdges() const {
  std::vector<WaitEdge> edges;
  AppendWaitForEdges(&edges);
  return edges;
}

void LockManager::AppendWaitForEdges(std::vector<WaitEdge>* out) const {
  for (EntityId entity : touched_) {
    const LockState& state = table_[entity];
    for (int32_t w = state.head; w != -1; w = pool_[w].next) {
      const int waiter = pool_[w].txn;
      if (state.holder != -1) {
        if (state.holder != waiter) {
          out->push_back(WaitEdge{waiter, state.holder, entity});
        }
        continue;
      }
      for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
        if (pool_[s].txn != waiter) {
          out->push_back(WaitEdge{waiter, pool_[s].txn, entity});
        }
      }
    }
  }
}

}  // namespace wydb
