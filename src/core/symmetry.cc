#include "core/symmetry.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace wydb {

namespace {

/// Structural equality: interchangeable transactions must have the same
/// steps over the same entities *and* the same precedence relation, so
/// that swapping them maps the system onto itself.
bool StructurallyEqual(const Transaction& a, const Transaction& b) {
  if (a.num_steps() != b.num_steps()) return false;
  for (NodeId v = 0; v < a.num_steps(); ++v) {
    if (!(a.step(v) == b.step(v))) return false;
  }
  for (NodeId u = 0; u < a.num_steps(); ++u) {
    for (NodeId v = 0; v < a.num_steps(); ++v) {
      if (a.Precedes(u, v) != b.Precedes(u, v)) return false;
    }
  }
  return true;
}

}  // namespace

TransactionOrbits::TransactionOrbits(const TransactionSystem& sys) {
  const int n = sys.num_transactions();
  orbit_of_.assign(n, -1);
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < static_cast<int>(orbits_.size()); ++o) {
      if (StructurallyEqual(sys.txn(orbits_[o][0]), sys.txn(i))) {
        orbit_of_[i] = o;
        orbits_[o].push_back(i);
        break;
      }
    }
    if (orbit_of_[i] < 0) {
      orbit_of_[i] = static_cast<int>(orbits_.size());
      orbits_.push_back({i});
    }
  }
  for (const auto& orbit : orbits_) {
    largest_ = std::max(largest_, static_cast<int>(orbit.size()));
  }
}

OrbitCanonicalizer::OrbitCanonicalizer(const StateSpace* space,
                                       const TransactionOrbits* orbits,
                                       int arc_row_words)
    : space_(space),
      orbits_(orbits),
      arc_row_words_(arc_row_words),
      n_(space->system().num_transactions()),
      exec_words_(space->words_per_state()),
      key_words_(exec_words_ + n_ * arc_row_words) {}

bool OrbitCanonicalizer::SortPerm(const uint64_t* key, int* perm) const {
  for (int i = 0; i < n_; ++i) perm[i] = i;
  bool moved = false;
  for (const std::vector<int>& orbit : orbits_->orbits()) {
    if (orbit.size() < 2) continue;
    // All members share one step count, hence one block width.
    const int words = space_->txn_word_count(orbit[0]);
    // Stable sort of the orbit's members by exec-block content: ties keep
    // ascending member order, so the permutation is a deterministic
    // function of the key alone (witness replay recomputes it).
    thread_local std::vector<int> members;
    members.assign(orbit.begin(), orbit.end());
    std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
      return std::memcmp(key + space_->txn_word_offset(a),
                         key + space_->txn_word_offset(b),
                         words * sizeof(uint64_t)) < 0;
    });
    for (size_t p = 0; p < orbit.size(); ++p) {
      perm[orbit[p]] = members[p];
      if (members[p] != orbit[p]) moved = true;
    }
  }
  return moved;
}

void OrbitCanonicalizer::Apply(const int* perm, uint64_t* key, uint64_t* aux,
                               std::vector<uint64_t>* scratch) const {
  // Gather-permute the exec blocks of the key (and the frontier blocks of
  // the aux, which share the layout) through a scratch copy.
  const size_t aux_exec = aux != nullptr ? exec_words_ : 0;
  scratch->resize(key_words_ + aux_exec);
  std::memcpy(scratch->data(), key, key_words_ * sizeof(uint64_t));
  if (aux != nullptr) {
    std::memcpy(scratch->data() + key_words_, aux,
                exec_words_ * sizeof(uint64_t));
  }
  const uint64_t* old_key = scratch->data();
  const uint64_t* old_aux_frontier = scratch->data() + key_words_;
  for (int i = 0; i < n_; ++i) {
    const int src = perm[i];
    if (src == i) continue;
    const int words = space_->txn_word_count(i);
    std::memcpy(key + space_->txn_word_offset(i),
                old_key + space_->txn_word_offset(src),
                words * sizeof(uint64_t));
    if (aux != nullptr) {
      std::memcpy(aux + space_->txn_word_offset(i),
                  old_aux_frontier + space_->txn_word_offset(src),
                  words * sizeof(uint64_t));
    }
  }

  if (arc_row_words_ > 0) {
    // arcs[new_i][new_j] = old_arcs[perm[new_i]][perm[new_j]]: rows and
    // columns permute together (the arc ends are transaction indices).
    const uint64_t* old_arcs = old_key + exec_words_;
    uint64_t* arcs = key + exec_words_;
    std::memset(arcs, 0,
                static_cast<size_t>(n_) * arc_row_words_ * sizeof(uint64_t));
    for (int i = 0; i < n_; ++i) {
      const uint64_t* old_row =
          old_arcs + static_cast<size_t>(perm[i]) * arc_row_words_;
      uint64_t* row = arcs + static_cast<size_t>(i) * arc_row_words_;
      for (int j = 0; j < n_; ++j) {
        if ((old_row[perm[j] / 64] >> (perm[j] % 64)) & 1) {
          row[j / 64] |= 1ULL << (j % 64);
        }
      }
    }
  }

  if (aux != nullptr) {
    // Exclusive holder entries are transaction indices: remap old -> new
    // through the inverse permutation. Shared entries are anonymous
    // counts — permutation-invariant by construction — and free slots
    // stay free.
    thread_local std::vector<uint16_t> inv;
    inv.resize(n_);
    for (int i = 0; i < n_; ++i) inv[perm[i]] = static_cast<uint16_t>(i);
    uint16_t* holders = space_->HolderTable(aux);
    const int num_entities = space_->system().db().num_entities();
    for (int e = 0; e < num_entities; ++e) {
      if (StateSpace::IsExclusiveEntry(holders[e])) {
        holders[e] = inv[holders[e]];
      }
    }
  }
}

void OrbitCanonicalizer::Canonicalize(uint64_t* key, uint64_t* aux) const {
  thread_local std::vector<int> perm;
  thread_local std::vector<uint64_t> scratch;
  perm.resize(n_);
  if (SortPerm(key, perm.data())) Apply(perm.data(), key, aux, &scratch);
}

void OrbitCanonicalizer::CanonicalizeKey(uint64_t* key, int* perm) const {
  thread_local std::vector<uint64_t> scratch;
  if (SortPerm(key, perm)) Apply(perm, key, /*aux=*/nullptr, &scratch);
}

void ReplayReducedPath(
    const ShardedStateStore& store, uint32_t id,
    const OrbitCanonicalizer& canon, bool canonical_active,
    const StateSpace& space, int key_words,
    const std::function<void(const uint64_t*, GlobalNode, uint64_t*)>&
        build_child,
    std::vector<GlobalNode>* schedule, std::vector<int>* tau) {
  const int n = space.system().num_transactions();

  std::vector<uint32_t> ids;
  for (uint32_t cur = id;; cur = store.ParentOf(cur)) {
    ids.push_back(cur);
    if (store.ParentOf(cur) == ShardedStateStore::kNoId) break;
  }
  std::reverse(ids.begin(), ids.end());

  tau->resize(n);
  std::iota(tau->begin(), tau->end(), 0);
  std::vector<int> sigma(n), next_tau(n);
  std::vector<uint64_t> child(key_words);
  // KeyView unpacks ancestor keys (kCompact has no ancestor keys at all
  // and is rejected before a reduced search starts).
  ShardedStateStore::KeyDecodeCache decode;
  for (size_t k = 1; k < ids.size(); ++k) {
    const GlobalNode g = store.MoveOf(ids[k]);
    schedule->push_back(GlobalNode{(*tau)[g.txn], g.node});
    if (!canonical_active) continue;
    build_child(store.KeyView(ids[k - 1], &decode), g, child.data());
    canon.CanonicalizeKey(child.data(), sigma.data());
    for (int i = 0; i < n; ++i) next_tau[i] = (*tau)[sigma[i]];
    tau->swap(next_tau);
  }
}

}  // namespace wydb
