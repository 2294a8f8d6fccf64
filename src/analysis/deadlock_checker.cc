#include "analysis/deadlock_checker.h"

#include <cstring>

#include "analysis/level_search.h"
#include "core/reduction_graph.h"
#include "core/state_space.h"
#include "core/symmetry.h"

namespace wydb {
namespace {

std::vector<std::vector<NodeId>> PrefixNodesOf(const StateSpace& space,
                                               const uint64_t* words) {
  const TransactionSystem& sys = space.system();
  std::vector<std::vector<NodeId>> out(sys.num_transactions());
  for (int i = 0; i < sys.num_transactions(); ++i) {
    for (NodeId v = 0; v < sys.txn(i).num_steps(); ++v) {
      if (space.IsExecuted(words, i, v)) out[i].push_back(v);
    }
  }
  return out;
}

/// Theorem 1 as a level-search policy: states are the plain execution
/// states, and a witness is recognized when it is expanded — a stuck
/// state (no legal move, incomplete) or a prefix whose reduction graph is
/// cyclic. Both predicates are per-state, so workers test them in
/// parallel.
class DeadlockPolicy {
 public:
  struct Scratch {};
  static constexpr bool kCreationFlags = false;

  DeadlockPolicy(const StateSpace& space, DeadlockDetectionMode mode)
      : space_(space), mode_(mode) {}

  int key_words() const { return space_.words_per_state(); }
  std::vector<int> key_word_bits() const { return space_.KeyWordBits(); }
  int aux_words() const { return space_.aux_words(); }
  Scratch NewScratch() const { return {}; }

  void InitRoot(uint64_t* key, uint64_t* aux) const {
    space_.InitRoot(key, aux);
  }

  bool IsWitness(const uint64_t* key,
                 const std::vector<GlobalNode>& moves) const {
    if (mode_ == DeadlockDetectionMode::kStuckState) {
      return moves.empty() && !space_.IsComplete(key);
    }
    return ReductionGraph(space_.ToPrefixSet(key)).HasCycle();
  }

  void MakeChild(Scratch&, const uint64_t* key, const uint64_t* aux,
                 GlobalNode g, uint64_t* child_key,
                 uint64_t* child_aux) const {
    space_.ApplyInto(key, aux, g, child_key, child_aux);
  }

 private:
  const StateSpace& space_;
  const DeadlockDetectionMode mode_;
};

/// The witness for the prefix `words`, reached by `schedule`.
DeadlockWitness MakeWitness(const StateSpace& space, Schedule schedule,
                            const uint64_t* words, bool want_cycle_text) {
  DeadlockWitness w;
  w.schedule = std::move(schedule);
  w.prefix_nodes = PrefixNodesOf(space, words);
  if (want_cycle_text) {
    ReductionGraph rg(space.ToPrefixSet(words));
    w.reduction_cycle = rg.CycleToString(space.system(), rg.FindGlobalCycle());
  }
  return w;
}

// Rebuilds a concrete witness from a stored path of orbit representatives
// via the shared ReplayReducedPath permutation composition (core/symmetry,
// DESIGN.md §8.3): the concrete schedule is legal from the empty state and
// ends in a genuine stuck / cyclic state.
DeadlockWitness MakeReducedWitness(const StateSpace& space,
                                   const OrbitCanonicalizer& canon,
                                   bool canonical_active,
                                   const ShardedStateStore& store,
                                   uint32_t id, bool want_cycle_text) {
  const int kw = space.words_per_state();
  Schedule schedule;
  std::vector<int> tau;
  ReplayReducedPath(
      store, id, canon, canonical_active, space, kw,
      [&](const uint64_t* parent_key, GlobalNode g, uint64_t* child_key) {
        // Pre-canonical child = parent representative + the move's bit.
        std::memcpy(child_key, parent_key, kw * sizeof(uint64_t));
        const int bit = space.txn_word_offset(g.txn) * 64 + g.node;
        child_key[bit / 64] |= 1ULL << (bit % 64);
      },
      &schedule, &tau);

  std::vector<uint64_t> concrete(kw, 0);
  for (GlobalNode g : schedule) {
    const int bit = space.txn_word_offset(g.txn) * 64 + g.node;
    concrete[bit / 64] |= 1ULL << (bit % 64);
  }
  return MakeWitness(space, std::move(schedule), concrete.data(),
                     want_cycle_text);
}

}  // namespace

Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options.store, options.engine));
  StateSpace space(&sys);
  DeadlockPolicy policy(space, options.mode);
  const LevelSearchLimits limits = LimitsOf(options, "deadlock");
  const bool want_cycle_text =
      options.mode == DeadlockDetectionMode::kReductionGraph;

  DeadlockReport report;
  if (options.engine == SearchEngine::kReduced) {
    // Persistent-move pruning plus orbit canonicalization (DESIGN.md §8):
    // states_visited counts the reduced space.
    TransactionOrbits orbits(sys);
    OrbitCanonicalizer canon(&space, &orbits, /*arc_row_words=*/0);
    const bool canonical = orbits.HasNontrivialOrbit();
    LevelSearch<Expansion::kReduced, DeadlockPolicy> search(
        limits, space, &policy, canonical ? &canon : nullptr);
    WYDB_RETURN_IF_ERROR(search.Run());
    search.FillReport(&report);
    if (search.witness() != LevelSearchBase::kNoWitness) {
      report.witness = MakeReducedWitness(space, canon, canonical,
                                          search.store(), search.witness(),
                                          want_cycle_text);
    }
  } else {
    LevelSearch<Expansion::kFull, DeadlockPolicy> search(limits, space,
                                                         &policy);
    WYDB_RETURN_IF_ERROR(search.Run());
    search.FillReport(&report);
    if (search.witness() != LevelSearchBase::kNoWitness) {
      ShardedStateStore::KeyDecodeCache decode;
      report.witness = MakeWitness(
          space, search.store().PathFromRoot(search.witness()),
          search.store().KeyView(search.witness(), &decode), want_cycle_text);
    }
  }
  report.deadlock_free = !report.witness.has_value();
  return report;
}

Result<bool> IsDeadlockPrefix(const TransactionSystem& sys,
                              const PrefixSet& prefix, uint64_t max_states) {
  ReductionGraph rg(prefix);
  if (!rg.HasCycle()) return false;
  StateSpace space(&sys);
  auto sched = space.FindScheduleBetween(space.EmptyState(),
                                         space.StateOf(prefix), max_states);
  if (!sched.ok()) return sched.status();
  return sched->has_value();
}

}  // namespace wydb
