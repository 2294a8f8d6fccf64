#include "analysis/safety_checker.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "analysis/level_search.h"
#include "common/string_util.h"
#include "core/state_space.h"
#include "core/symmetry.h"
#include "graph/algorithms.h"

namespace wydb {
namespace {

/// True iff transaction `t` lies on a cycle of the packed row-major arc
/// bitset (one row of `row_words` words per transaction): bitset BFS from
/// t's successor row until it reaches t or stops growing. `reach` and
/// `frontier` are caller scratch of row_words words (so concurrent
/// searches can keep per-worker buffers).
bool ArcsOnCycle(const uint64_t* arcs, int t, int row_words,
                 std::vector<uint64_t>& reach,
                 std::vector<uint64_t>& frontier) {
  for (int w = 0; w < row_words; ++w) {
    reach[w] = arcs[t * row_words + w];
    frontier[w] = reach[w];
  }
  while (true) {
    if ((reach[t / 64] >> (t % 64)) & 1) return true;
    bool grew = false;
    for (int w = 0; w < row_words; ++w) {
      uint64_t bits = frontier[w];
      frontier[w] = 0;
      while (bits != 0) {
        int j = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        const uint64_t* row = arcs + static_cast<size_t>(j) * row_words;
        for (int rw = 0; rw < row_words; ++rw) {
          uint64_t fresh = row[rw] & ~reach[rw];
          if (fresh != 0) {
            reach[rw] |= fresh;
            frontier[rw] |= fresh;
            grew = true;
          }
        }
      }
    }
    if (!grew) return false;
  }
}

inline void AddPackedArc(uint64_t* arcs, int row_words, int i, int j) {
  arcs[i * row_words + j / 64] |= 1ULL << (j % 64);
}

/// The one definition of the §5 child arc update, shared by the search
/// and the reduced witness replay: executing `g` from the parent state
/// `parent_key` adds, for a
/// Lock of x by Ti, the arc Tj -> Ti for every CONFLICTING accessor Tj
/// whose Lx is already executed in S' and Ti -> Tj otherwise. Two
/// shared locks on x are compatible and draw no arc (X–X and X–S pairs
/// do); with every lock exclusive this is exactly the paper's §5 rule.
/// Returns false when `g` is not a Lock (no arcs added).
bool ApplyLockArcs(const StateSpace& space, const uint64_t* parent_key,
                   GlobalNode g, int row_words, uint64_t* arcs) {
  const Step& st = space.system().txn(g.txn).step(g.node);
  if (st.kind != StepKind::kLock) return false;
  const EntityId x = st.entity;
  const int t = g.txn;
  for (int j : space.AccessorsOf(x)) {
    if (j == t) continue;
    if (!LockModesConflict(st.mode, space.system().txn(j).LockModeOf(x))) {
      continue;  // S–S: compatible, no conflict arc.
    }
    NodeId lj = space.LockNodeOf(j, x);
    if (space.IsExecuted(parent_key, j, lj)) {
      AddPackedArc(arcs, row_words, j, t);  // Tj locked x earlier in S'.
    } else {
      AddPackedArc(arcs, row_words, t, j);  // Ti locks first, even if Lx
                                            // of Tj never executes in S'.
    }
  }
  return true;
}

/// Arc update plus the incremental cycle test: all fresh arcs touch Ti
/// and the parent is acyclic, so the child is cyclic iff Ti now reaches
/// itself; returns that verdict (`reach`/`frontier` are caller scratch
/// of row_words words).
bool ApplyLockArcsAndTestCycle(const StateSpace& space,
                               const uint64_t* parent_key, GlobalNode g,
                               int row_words, uint64_t* arcs,
                               std::vector<uint64_t>& reach,
                               std::vector<uint64_t>& frontier) {
  if (!ApplyLockArcs(space, parent_key, g, row_words, arcs)) return false;
  return ArcsOnCycle(arcs, g.txn, row_words, reach, frontier);
}

// The Lemma search key is [exec words | arc rows]: the conflict-arc set
// of D(S') packed row-major, one row of ceil(n/64) words per transaction,
// so row operations (reachability) are word ops. The aux words are the
// StateSpace cache plus one flag word.
struct LemmaKeyLayout {
  explicit LemmaKeyLayout(const StateSpace& space)
      : n_(space.system().num_transactions()),
        exec_words_(space.words_per_state()),
        row_words_((n_ + 63) / 64),
        arc_words_(n_ * row_words_),
        key_words_(exec_words_ + arc_words_),
        flag_word_(space.aux_words()),
        aux_words_(space.aux_words() + 1) {}

  const uint64_t* Arcs(const uint64_t* key) const {
    return key + exec_words_;
  }
  uint64_t* Arcs(uint64_t* key) const { return key + exec_words_; }

  /// The exec words' widths, then n rows whose words hold the arcs to
  /// transactions [64w, min(n, 64w + 64)).
  std::vector<int> KeyWordBits(const StateSpace& space) const {
    std::vector<int> bits = space.KeyWordBits();
    for (int i = 0; i < n_; ++i) {
      for (int w = 0; w < row_words_; ++w) {
        bits.push_back(std::clamp(n_ - 64 * w, 0, 64));
      }
    }
    return bits;
  }

  Digraph ArcsDigraph(const uint64_t* key) const {
    Digraph d(n_);
    const uint64_t* arcs = Arcs(key);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (i != j &&
            ((arcs[i * row_words_ + j / 64] >> (j % 64)) & 1) != 0) {
          d.AddArc(i, j);
        }
      }
    }
    return d;
  }

  ExecState ExecOf(const uint64_t* key) const {
    ExecState e;
    e.words.assign(key, key + exec_words_);
    return e;
  }

  const int n_;
  const int exec_words_;
  const int row_words_;
  const int arc_words_;
  const int key_words_;
  const int flag_word_;
  const int aux_words_;
};

// ---------------------------------------------------------------------------
// Lemma 1 as a level-search policy.
//
// Cycle detection is incremental. Arc sets only grow along a path (§5
// lemma), and every arc added by applying a Lock step of transaction t is
// incident to t. Hence if the parent state's digraph is acyclic, any cycle
// in the child passes through t, so the child is cyclic iff t can reach
// itself — one bitset BFS from t's row instead of a full FindCycle. The
// search only ever expands acyclic states (cyclic ones report or prune),
// so "parent acyclic" holds inductively, and each state's cyclicity is
// decided once, when it is staged, and carried in the aux flag word. The
// driver's serial scan then decides the flagged states in id order: for
// safe+DF the first one is the violation; for pure safety each one is
// reported if it can be completed and pruned otherwise.
// ---------------------------------------------------------------------------

class LemmaPolicy {
 public:
  struct Scratch {
    std::vector<uint64_t> reach;
    std::vector<uint64_t> frontier;
    uint64_t delta_skipped = 0;
  };
  static constexpr bool kCreationFlags = true;

  LemmaPolicy(const StateSpace& space, const LemmaKeyLayout& lay,
              bool require_complete, int delta_txn, uint64_t max_states)
      : space_(space),
        lay_(lay),
        require_complete_(require_complete),
        delta_(delta_txn),
        delta_off_(delta_txn >= 0 ? space.txn_word_offset(delta_txn) : 0),
        delta_cnt_(delta_txn >= 0 ? space.txn_word_count(delta_txn) : 0),
        max_states_(max_states) {}

  int key_words() const { return lay_.key_words_; }
  std::vector<int> key_word_bits() const { return lay_.KeyWordBits(space_); }
  int aux_words() const { return lay_.aux_words_; }
  Scratch NewScratch() const {
    Scratch s;
    s.reach.resize(lay_.row_words_);
    s.frontier.resize(lay_.row_words_);
    return s;
  }

  /// The empty state: no arcs, not cyclic (the buffers come zeroed).
  void InitRoot(uint64_t* key, uint64_t* aux) const {
    space_.InitRoot(key, aux);
  }

  bool Flagged(const uint64_t* aux) const {
    return (aux[lay_.flag_word_] & 1) != 0;
  }

  /// Decides a cyclic state: safe+DF reports it; pure safety reports it
  /// only if it can be completed (arc sets only grow, so the completed
  /// schedule is cyclic too) and prunes it otherwise — no descendant can
  /// then reach a complete schedule, and all inherit the cycle.
  /// Completability is permutation-invariant, so under kReduced it is
  /// probed on the representative.
  Result<bool> Confirm(const uint64_t* key) {
    if (!require_complete_) return true;
    WYDB_ASSIGN_OR_RETURN(completion_,
                          space_.FindCompletion(lay_.ExecOf(key), max_states_));
    return completion_.has_value();
  }

  /// Exec part + expansion cache in O(successors of g), then the parent's
  /// arcs plus the Lock arcs of `g`, and the child's cycle flag.
  void MakeChild(Scratch& s, const uint64_t* key, const uint64_t* aux,
                 GlobalNode g, uint64_t* child_key,
                 uint64_t* child_aux) const {
    space_.ApplyInto(key, aux, g, child_key, child_aux);
    std::memcpy(lay_.Arcs(child_key), lay_.Arcs(key),
                lay_.arc_words_ * sizeof(uint64_t));
    child_aux[lay_.flag_word_] = 0;
    if (g.txn != delta_ && DeltaIdle(key)) {
      // Delta gate (docs/SERVE.md): with the system minus `delta_` known
      // safe+DF, no reachable state with `delta_` idle is cyclic, so the
      // child of a delta-idle parent by a non-delta move skips the cycle
      // test. The arcs must still accrue.
      ApplyLockArcs(space_, key, g, lay_.row_words_, lay_.Arcs(child_key));
      ++s.delta_skipped;
    } else if (ApplyLockArcsAndTestCycle(space_, key, g, lay_.row_words_,
                                         lay_.Arcs(child_key), s.reach,
                                         s.frontier)) {
      child_aux[lay_.flag_word_] |= 1;
    }
  }

  /// The completion found by the last reporting Confirm (pure safety).
  const Schedule& completion() const { return *completion_; }

 private:
  /// True when the gate is on and `delta_` has executed nothing in `key`.
  bool DeltaIdle(const uint64_t* key) const {
    if (delta_ < 0) return false;
    for (int w = 0; w < delta_cnt_; ++w) {
      if (key[delta_off_ + w] != 0) return false;
    }
    return true;
  }

  const StateSpace& space_;
  const LemmaKeyLayout& lay_;
  const bool require_complete_;
  const int delta_;
  const int delta_off_;
  const int delta_cnt_;
  const uint64_t max_states_;
  std::optional<Schedule> completion_;
};

// Builds the concrete violation for a flagged representative of the
// reduced search: replay the path via the shared permutation composition
// (core/symmetry, DESIGN.md §8.3), permute the stored arc matrix through
// the final tau, and report a cycle of the *concrete* digraph.
SafetyViolation MakeReducedViolation(const StateSpace& space,
                                     const LemmaKeyLayout& lay,
                                     const OrbitCanonicalizer& canon,
                                     bool canonical_active,
                                     const ShardedStateStore& store,
                                     uint32_t id, const Schedule& extra) {
  Schedule sched;
  std::vector<int> tau;
  ReplayReducedPath(
      store, id, canon, canonical_active, space, lay.key_words_,
      [&](const uint64_t* parent_key, GlobalNode g, uint64_t* child_key) {
        // Pre-canonical child = parent representative + move: the exec
        // bit and the §5 lock arcs, exactly as the search staged it.
        std::memcpy(child_key, parent_key, lay.key_words_ * sizeof(uint64_t));
        const int bit = space.txn_word_offset(g.txn) * 64 + g.node;
        child_key[bit / 64] |= 1ULL << (bit % 64);
        ApplyLockArcs(space, parent_key, g, lay.row_words_,
                      lay.Arcs(child_key));
      },
      &sched, &tau);
  for (GlobalNode g : extra) sched.push_back(GlobalNode{tau[g.txn], g.node});
  Digraph concrete(lay.n_);
  ShardedStateStore::KeyDecodeCache decode;
  const uint64_t* arcs = lay.Arcs(store.KeyView(id, &decode));
  for (int i = 0; i < lay.n_; ++i) {
    for (int j = 0; j < lay.n_; ++j) {
      if (i != j &&
          ((arcs[i * lay.row_words_ + j / 64] >> (j % 64)) & 1) != 0) {
        concrete.AddArc(tau[i], tau[j]);
      }
    }
  }
  std::vector<NodeId> cycle = FindCycle(concrete);
  return SafetyViolation{std::move(sched),
                         std::vector<int>(cycle.begin(), cycle.end())};
}

Result<SafetyReport> RunSearch(const TransactionSystem& sys,
                               const SafetyCheckOptions& options,
                               bool require_complete) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options.store, options.engine));
  if (options.delta_txn >= 0) {
    if (options.delta_txn >= sys.num_transactions()) {
      return Status::InvalidArgument(
          StrFormat("delta_txn %d out of range (system has %d transactions)",
                    options.delta_txn, sys.num_transactions()));
    }
    if (options.engine == SearchEngine::kReduced) {
      // Canonicalization permutes the transaction blocks, so "the delta
      // transaction is idle" is not a property of a stored state.
      return Status::InvalidArgument(
          "delta_txn requires full expansion (the incremental or parallel "
          "engine)");
    }
    if (require_complete) {
      return Status::InvalidArgument(
          "delta_txn applies to the safe+deadlock-free check only");
    }
  }
  StateSpace space(&sys);
  const LemmaKeyLayout lay(space);
  LemmaPolicy policy(space, lay, require_complete, options.delta_txn,
                     options.max_states);
  const LevelSearchLimits limits = LimitsOf(options, "safety");

  SafetyReport report;
  const Schedule none;
  if (options.engine == SearchEngine::kReduced) {
    // Persistent-move pruning plus orbit canonicalization over the
    // extended (state, arc-set) space (DESIGN.md §8). Both reductions
    // preserve the reachability of terminal extended states, and a cyclic
    // arc set persists to every descendant, so the Lemma 1 verdicts
    // survive (§8.4). The canonical permutation sorts orbit blocks by
    // exec content and permutes the arc matrix rows/columns along.
    TransactionOrbits orbits(sys);
    OrbitCanonicalizer canon(&space, &orbits, lay.row_words_);
    const bool canonical = orbits.HasNontrivialOrbit();
    LevelSearch<Expansion::kReduced, LemmaPolicy> search(
        limits, space, &policy, canonical ? &canon : nullptr);
    WYDB_RETURN_IF_ERROR(search.Run());
    search.FillReport(&report);
    if (search.witness() != LevelSearchBase::kNoWitness) {
      report.violation = MakeReducedViolation(
          space, lay, canon, canonical, search.store(), search.witness(),
          require_complete ? policy.completion() : none);
    }
  } else {
    LevelSearch<Expansion::kFull, LemmaPolicy> search(limits, space, &policy);
    WYDB_RETURN_IF_ERROR(search.Run());
    search.FillReport(&report);
    search.ForEachScratch([&](const LemmaPolicy::Scratch& s) {
      report.delta_skipped_tests += s.delta_skipped;
    });
    if (search.witness() != LevelSearchBase::kNoWitness) {
      // Materialize the cycle only now that it is reported.
      ShardedStateStore::KeyDecodeCache decode;
      std::vector<NodeId> cycle = FindCycle(lay.ArcsDigraph(
          search.store().KeyView(search.witness(), &decode)));
      Schedule sched = search.store().PathFromRoot(search.witness());
      if (require_complete) {
        sched.insert(sched.end(), policy.completion().begin(),
                     policy.completion().end());
      }
      report.violation = SafetyViolation{
          std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
    }
  }
  report.holds = !report.violation.has_value();
  return report;
}

}  // namespace

Result<SafetyReport> CheckSafeAndDeadlockFree(
    const TransactionSystem& sys, const SafetyCheckOptions& options) {
  return RunSearch(sys, options, /*require_complete=*/false);
}

Result<SafetyReport> CheckSafety(const TransactionSystem& sys,
                                 const SafetyCheckOptions& options) {
  return RunSearch(sys, options, /*require_complete=*/true);
}

}  // namespace wydb
