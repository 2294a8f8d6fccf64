#include "core/state_space.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/string_util.h"
#include "core/state_store.h"

namespace wydb {

StateSpace::StateSpace(const TransactionSystem* sys) : sys_(sys) {
  const int n = sys->num_transactions();
  const int num_entities = sys->db().num_entities();
  offset_.resize(n);
  words_.resize(n);
  pred_mask_.resize(n);
  hasse_succ_.resize(n);
  lock_node_.assign(n, std::vector<NodeId>(num_entities, kInvalidNode));
  unlock_node_.assign(n, std::vector<NodeId>(num_entities, kInvalidNode));
  accessors_.resize(num_entities);
  // Four uint16 holder entries per aux word; 0xFFFF = kNoHolder.
  holder_words_ = (num_entities + 3) / 4;
  for (int i = 0; i < n; ++i) {
    offset_[i] = total_words_;
    const Transaction& t = sys->txn(i);
    int words = std::max(1, (t.num_steps() + 63) / 64);
    words_[i] = words;
    total_words_ += words;
    pred_mask_[i].assign(t.num_steps(), std::vector<uint64_t>(words, 0));
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      for (NodeId u = 0; u < t.num_steps(); ++u) {
        if (t.Precedes(u, v)) bitmask::Set(&pred_mask_[i][v], u);
      }
    }
    Digraph hasse = t.HasseDiagram();
    hasse_succ_[i].resize(t.num_steps());
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      hasse_succ_[i][v] = hasse.OutNeighbors(v);
    }
    for (EntityId e : t.entities()) {
      lock_node_[i][e] = t.LockNode(e);
      unlock_node_[i][e] = t.UnlockNode(e);
      accessors_[e].push_back(i);
    }
  }
  entity_unlock_bits_.resize(num_entities);
  for (int e = 0; e < num_entities; ++e) {
    entity_unlock_bits_[e].reserve(accessors_[e].size());
    for (int j : accessors_[e]) {
      const int bit = offset_[j] * 64 + unlock_node_[j][e];
      entity_unlock_bits_[e].push_back(UnlockBit{
          j, bit / 64, 1ULL << (bit % 64), sys->txn(j).LockModeOf(e)});
    }
  }
  full_words_.assign(total_words_, 0);
  for (int i = 0; i < n; ++i) {
    for (NodeId v = 0; v < sys_->txn(i).num_steps(); ++v) {
      bitmask::Set(&full_words_, offset_[i] * 64 + v);
    }
  }
}

std::vector<int> StateSpace::KeyWordBits() const {
  std::vector<int> bits;
  bits.reserve(total_words_);
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const int steps = sys_->txn(i).num_steps();
    for (int w = 0; w < words_[i]; ++w) {
      bits.push_back(std::clamp(steps - 64 * w, 0, 64));
    }
  }
  return bits;
}

ExecState StateSpace::EmptyState() const {
  ExecState s;
  s.words.assign(total_words_, 0);
  return s;
}

ExecState StateSpace::FullState() const {
  ExecState s;
  s.words = full_words_;
  return s;
}

ExecState StateSpace::StateOf(const PrefixSet& prefix) const {
  ExecState s = EmptyState();
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const auto& m = prefix.masks()[i];
    for (size_t w = 0; w < m.size(); ++w) {
      s.words[offset_[i] + static_cast<int>(w)] = m[w];
    }
  }
  return s;
}

PrefixSet StateSpace::ToPrefixSet(const ExecState& s) const {
  return ToPrefixSet(s.words.data());
}

PrefixSet StateSpace::ToPrefixSet(const uint64_t* words) const {
  PrefixSet p(sys_);
  auto* masks = p.mutable_masks();
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    auto& m = (*masks)[i];
    for (size_t w = 0; w < m.size(); ++w) {
      m[w] = words[offset_[i] + static_cast<int>(w)];
    }
  }
  return p;
}

bool StateSpace::IsComplete(const ExecState& s) const {
  return IsComplete(s.words.data());
}

bool StateSpace::IsComplete(const uint64_t* words) const {
  return std::memcmp(words, full_words_.data(),
                     total_words_ * sizeof(uint64_t)) == 0;
}

bool StateSpace::IsLegal(const ExecState& s, GlobalNode g) const {
  const Transaction& t = sys_->txn(g.txn);
  if (IsExecuted(s, g.txn, g.node)) return false;
  // Predecessors within the transaction must all be executed.
  const auto& pred = pred_mask_[g.txn][g.node];
  for (size_t w = 0; w < pred.size(); ++w) {
    if (pred[w] & ~s.words[offset_[g.txn] + static_cast<int>(w)]) {
      return false;
    }
  }
  if (t.step(g.node).kind == StepKind::kLock) {
    EntityId e = t.step(g.node).entity;
    LockMode m = t.step(g.node).mode;
    // Some other transaction holding e (locked, not yet unlocked) in a
    // conflicting mode blocks; two shared holders coexist.
    for (int j = 0; j < sys_->num_transactions(); ++j) {
      if (j == g.txn) continue;
      const Transaction& tj = sys_->txn(j);
      NodeId lj = tj.LockNode(e);
      if (lj == kInvalidNode) continue;
      if (!LockModesConflict(m, tj.LockModeOf(e))) continue;
      if (IsExecuted(s, j, lj) && !IsExecuted(s, j, tj.UnlockNode(e))) {
        return false;
      }
    }
  }
  return true;
}

std::vector<GlobalNode> StateSpace::LegalMoves(const ExecState& s) const {
  std::vector<GlobalNode> moves;
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const Transaction& t = sys_->txn(i);
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      GlobalNode g{i, v};
      if (IsLegal(s, g)) moves.push_back(g);
    }
  }
  return moves;
}

ExecState StateSpace::Apply(const ExecState& s, GlobalNode move) const {
  ExecState next = s;
  bitmask::Set(&next.words, offset_[move.txn] * 64 + move.node);
  return next;
}

std::vector<EntityId> StateSpace::Held(const ExecState& s, int i) const {
  const Transaction& t = sys_->txn(i);
  std::vector<EntityId> out;
  for (EntityId e : t.entities()) {
    if (IsExecuted(s, i, t.LockNode(e)) &&
        !IsExecuted(s, i, t.UnlockNode(e))) {
      out.push_back(e);
    }
  }
  return out;
}

// --- Incremental expansion ------------------------------------------------

void StateSpace::InitRoot(uint64_t* state, uint64_t* aux) const {
  std::memset(state, 0, total_words_ * sizeof(uint64_t));
  InitAux(state, aux);
}

void StateSpace::InitAux(const uint64_t* state, uint64_t* aux) const {
  std::memset(aux, 0, aux_words() * sizeof(uint64_t));
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const Transaction& t = sys_->txn(i);
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      if (IsExecuted(state, i, v)) continue;
      const auto& pred = pred_mask_[i][v];
      bool ready = true;
      for (int w = 0; w < words_[i]; ++w) {
        if (pred[w] & ~state[offset_[i] + w]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        int bit = offset_[i] * 64 + v;
        aux[bit / 64] |= 1ULL << (bit % 64);
      }
    }
  }
  uint16_t* holders = Holders(aux);
  std::memset(holders, 0xFF, holder_words_ * sizeof(uint64_t));
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const Transaction& t = sys_->txn(i);
    for (EntityId e : t.entities()) {
      if (IsExecuted(state, i, t.LockNode(e)) &&
          !IsExecuted(state, i, t.UnlockNode(e))) {
        if (t.LockModeOf(e) == LockMode::kExclusive) {
          holders[e] = static_cast<uint16_t>(i);
        } else {
          holders[e] = IsSharedEntry(holders[e])
                           ? static_cast<uint16_t>(holders[e] + 1)
                           : static_cast<uint16_t>(kSharedFlag | 1);
        }
      }
    }
  }
}

namespace {

// A frontier Lock of mode `m` is blocked by the holder-table entry `h`
// exactly when a conflicting hold exists: any entry blocks an exclusive
// request, only an exclusive entry blocks a shared one. The holder can
// never be the requester itself (its Lock is still unexecuted), so no
// owner comparison is needed.
inline bool LockBlocked(uint16_t h, LockMode m) {
  if (h == StateSpace::kNoHolder) return false;
  return m == LockMode::kExclusive || StateSpace::IsExclusiveEntry(h);
}

}  // namespace

void StateSpace::ExpandInto(const uint64_t* aux,
                            std::vector<GlobalNode>* moves) const {
  const uint16_t* holders = Holders(aux);
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const Transaction& t = sys_->txn(i);
    for (int w = 0; w < words_[i]; ++w) {
      uint64_t bits = aux[offset_[i] + w];
      while (bits != 0) {
        int b = std::countr_zero(bits);
        bits &= bits - 1;
        NodeId v = static_cast<NodeId>(w * 64 + b);
        const Step& st = t.step(v);
        if (st.kind == StepKind::kLock &&
            LockBlocked(holders[st.entity], st.mode)) {
          continue;
        }
        moves->push_back(GlobalNode{i, v});
      }
    }
  }
}

int StateSpace::ExpandReducedInto(const uint64_t* state, const uint64_t* aux,
                                  std::vector<GlobalNode>* moves) const {
  const size_t base = moves->size();
  const uint16_t* holders = Holders(aux);
  // first_safe indexes into *moves; npos = no invisible move seen yet.
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t first_safe = kNone;
  for (int i = 0; i < sys_->num_transactions(); ++i) {
    const Transaction& t = sys_->txn(i);
    for (int w = 0; w < words_[i]; ++w) {
      uint64_t bits = aux[offset_[i] + w];
      while (bits != 0) {
        int b = std::countr_zero(bits);
        bits &= bits - 1;
        NodeId v = static_cast<NodeId>(w * 64 + b);
        const Step& st = t.step(v);
        if (st.kind == StepKind::kLock &&
            LockBlocked(holders[st.entity], st.mode)) {
          continue;
        }
        moves->push_back(GlobalNode{i, v});
        if (first_safe == kNone) {
          // Unlock steps carry the mode of the matching Lock (normalized
          // by Transaction::Create), so st.mode is the move's mode for
          // both kinds: only conflicting accessors must be done.
          bool safe = true;
          for (const UnlockBit& u : entity_unlock_bits_[st.entity]) {
            if (u.txn == i || !LockModesConflict(st.mode, u.mode)) continue;
            if ((state[u.word] & u.mask) == 0) {
              safe = false;
              break;
            }
          }
          if (safe) first_safe = moves->size() - 1;
        }
      }
    }
  }
  if (first_safe == kNone) return 0;
  // One invisible move covers every sibling: keep it, drop the rest.
  const int pruned = static_cast<int>(moves->size() - base) - 1;
  (*moves)[base] = (*moves)[first_safe];
  moves->resize(base + 1);
  return pruned;
}

void StateSpace::ApplyInto(const uint64_t* state, const uint64_t* aux,
                           GlobalNode g, uint64_t* next_state,
                           uint64_t* next_aux) const {
  std::memcpy(next_state, state, total_words_ * sizeof(uint64_t));
  std::memcpy(next_aux, aux, aux_words() * sizeof(uint64_t));
  const int bit = offset_[g.txn] * 64 + g.node;
  next_state[bit / 64] |= 1ULL << (bit % 64);
  next_aux[bit / 64] &= ~(1ULL << (bit % 64));
  // Only direct successors of g can become ready.
  for (NodeId u : hasse_succ_[g.txn][g.node]) {
    const auto& pu = pred_mask_[g.txn][u];
    bool ready = true;
    for (int w = 0; w < words_[g.txn]; ++w) {
      if (pu[w] & ~next_state[offset_[g.txn] + w]) {
        ready = false;
        break;
      }
    }
    if (ready) {
      int ubit = offset_[g.txn] * 64 + u;
      next_aux[ubit / 64] |= 1ULL << (ubit % 64);
    }
  }
  const Step& st = sys_->txn(g.txn).step(g.node);
  uint16_t* holders = Holders(next_aux);
  uint16_t& h = holders[st.entity];
  if (st.kind == StepKind::kLock) {
    if (st.mode == LockMode::kExclusive) {
      h = static_cast<uint16_t>(g.txn);
    } else {
      // Join (or found) the shared-holder set.
      h = IsSharedEntry(h) ? static_cast<uint16_t>(h + 1)
                           : static_cast<uint16_t>(kSharedFlag | 1);
    }
  } else {
    // st.mode is the matching Lock's mode (normalized at Create time).
    if (st.mode == LockMode::kShared && IsSharedEntry(h) &&
        (h & ~kSharedFlag) > 1) {
      h = static_cast<uint16_t>(h - 1);
    } else {
      h = kNoHolder;
    }
  }
}

Result<std::optional<std::vector<GlobalNode>>>
StateSpace::FindScheduleBetween(const ExecState& from, const ExecState& target,
                                uint64_t max_states) const {
  if (!bitmask::IsSubset(from.words, target.words)) {
    return Status::InvalidArgument("target is not a superset of the start");
  }
  if (from.words == target.words) {
    return std::optional<std::vector<GlobalNode>>(std::vector<GlobalNode>{});
  }

  auto in_target = [&](GlobalNode g) {
    return bitmask::Test(target.words, offset_[g.txn] * 64 + g.node);
  };

  // Iterative DFS with a dead-state memo: a state is dead if no in-target
  // move sequence from it reaches the target. States are interned so the
  // memo and the per-state expansion caches live in flat arrays, and the
  // explicit frame stack makes the search depth independent of the native
  // call stack.
  StateStore store(total_words_, aux_words());
  std::vector<uint8_t> dead;
  std::vector<uint64_t> child_state(total_words_);
  std::vector<uint64_t> child_aux(aux_words());

  struct Frame {
    uint32_t id;
    std::vector<GlobalNode> moves;
    size_t next = 0;
  };

  // Frames are pooled by depth — popping keeps the slot (and its moves
  // capacity) for the next push, so expansion allocates only while the
  // search deepens past its previous maximum.
  std::vector<Frame> frames;
  size_t depth = 0;
  auto push_frame = [&](uint32_t id) {
    if (depth == frames.size()) frames.emplace_back();
    Frame& f = frames[depth++];
    f.id = id;
    f.next = 0;
    f.moves.clear();
    ExpandInto(store.AuxOf(id), &f.moves);
    std::erase_if(f.moves, [&](GlobalNode g) { return !in_target(g); });
  };

  std::vector<uint64_t> root_aux(aux_words());
  InitAux(from.words.data(), root_aux.data());
  uint32_t root = store.Intern(from.words.data()).id;
  std::memcpy(store.MutableAuxOf(root), root_aux.data(),
              aux_words() * sizeof(uint64_t));
  dead.push_back(0);

  uint64_t expanded = 1;  // The root counts as expanded, as before.
  if (max_states != 0 && expanded > max_states) {
    return Status::ResourceExhausted(
        StrFormat("schedule search exceeded %llu states",
                  static_cast<unsigned long long>(max_states)));
  }

  std::vector<GlobalNode> path;
  push_frame(root);

  while (depth > 0) {
    Frame& top = frames[depth - 1];
    if (top.next >= top.moves.size()) {
      dead[top.id] = 1;
      --depth;
      if (depth > 0) path.pop_back();
      continue;
    }
    GlobalNode g = top.moves[top.next++];
    ApplyInto(store.KeyOf(top.id), store.AuxOf(top.id), g, child_state.data(),
              child_aux.data());
    if (std::memcmp(child_state.data(), target.words.data(),
                    total_words_ * sizeof(uint64_t)) == 0) {
      path.push_back(g);
      return std::optional<std::vector<GlobalNode>>(std::move(path));
    }
    StateStore::InternResult r = store.Intern(child_state.data());
    if (r.inserted) {
      std::memcpy(store.MutableAuxOf(r.id), child_aux.data(),
                  aux_words() * sizeof(uint64_t));
      dead.push_back(0);
    } else if (dead[r.id]) {
      continue;
    }
    if (max_states != 0 && ++expanded > max_states) {
      return Status::ResourceExhausted(
          StrFormat("schedule search exceeded %llu states",
                    static_cast<unsigned long long>(max_states)));
    }
    path.push_back(g);
    push_frame(r.id);
  }
  return std::optional<std::vector<GlobalNode>>(std::nullopt);
}

}  // namespace wydb
