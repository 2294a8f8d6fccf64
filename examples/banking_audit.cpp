// Banking scenario: two branch sites hold account records; transfer
// transactions move money between branches while an audit transaction
// sweeps all accounts. A naive lock discipline is refuted by the paper's
// Theorem 4 test (with a concrete bad partial schedule); a latch-ordered
// redesign is certified, and the simulator confirms zero deadlocks under
// pure blocking.
//
// Run: ./build/examples/banking_audit
#include <cstdio>

#include "analysis/multi_analyzer.h"
#include "core/schedule.h"
#include "core/transaction_builder.h"
#include "runtime/simulation.h"

using namespace wydb;

namespace {

Transaction Seq(const Database& db, const std::string& name,
                const std::vector<std::pair<StepKind, std::string>>& seq) {
  auto t = TransactionBuilder::FromSequence(&db, name, seq);
  if (!t.ok()) {
    std::printf("bad transaction %s: %s\n", name.c_str(),
                t.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*t);
}

void Analyze(const char* title, const TransactionSystem& sys) {
  std::printf("== %s ==\n", title);
  auto report = CheckSystemSafeAndDeadlockFree(sys);
  if (!report.ok()) {
    std::printf("  analysis failed: %s\n",
                report.status().ToString().c_str());
    return;
  }
  std::printf(
      "  Theorem 4 verdict: %s (visited %llu interaction-graph paths, "
      "tested %llu cycle variants)\n",
      report->safe_and_deadlock_free ? "SAFE + DEADLOCK-FREE" : "REFUTED",
      static_cast<unsigned long long>(report->path_nodes),
      static_cast<unsigned long long>(report->variants_checked));
  if (!report->safe_and_deadlock_free) {
    const MultiViolation& v = *report->violation;
    if (v.failed_pair) {
      std::printf("  failing pair: %s vs %s — %s\n",
                  sys.txn(v.failed_pair->first).name().c_str(),
                  sys.txn(v.failed_pair->second).name().c_str(),
                  v.pair_verdict.explanation.c_str());
    } else {
      std::printf("  circular wait across:");
      for (int i : v.cycle) std::printf(" %s", sys.txn(i).name().c_str());
      std::printf("\n  bad partial schedule: %s\n",
                  ScheduleToString(sys, v.witness).c_str());
    }
  }

  SimOptions opts;
  opts.policy = ConflictPolicy::kBlock;
  auto agg = RunMany(sys, opts, 50);
  std::printf("  simulated 50 runs (blocking): %d deadlocked, %d committed, "
              "serializable=%s\n\n",
              agg->deadlocked_runs, agg->committed_runs,
              agg->all_histories_serializable ? "yes" : "n/a");
}

}  // namespace

int main() {
  Database db;
  for (const char* acc : {"alice", "bob"}) {
    db.AddEntityAtSite(acc, "branch1").ValueOrDie();
  }
  for (const char* acc : {"carol", "dave"}) {
    db.AddEntityAtSite(acc, "branch2").ValueOrDie();
  }

  using K = StepKind;
  // Naive design: each transfer locks its source first, the audit sweeps
  // branch2 before branch1 — opposite orders => circular waits.
  {
    std::vector<Transaction> txns;
    txns.push_back(Seq(db, "transfer_a_to_c",
                       {{K::kLock, "alice"}, {K::kLock, "carol"},
                        {K::kUnlock, "alice"}, {K::kUnlock, "carol"}}));
    txns.push_back(Seq(db, "transfer_d_to_b",
                       {{K::kLock, "dave"}, {K::kLock, "bob"},
                        {K::kUnlock, "dave"}, {K::kUnlock, "bob"}}));
    txns.push_back(Seq(db, "audit",
                       {{K::kLock, "carol"}, {K::kLock, "dave"},
                        {K::kLock, "alice"}, {K::kLock, "bob"},
                        {K::kUnlock, "carol"}, {K::kUnlock, "dave"},
                        {K::kUnlock, "alice"}, {K::kUnlock, "bob"}}));
    auto sys = TransactionSystem::Create(&db, std::move(txns));
    Analyze("naive lock order", *sys);
  }

  // Redesign: a global account order (alice < bob < carol < dave); every
  // transaction locks in that order and the audit keeps its first lock to
  // the end. All pairs get a dominating first entity and covered
  // followers.
  {
    std::vector<Transaction> txns;
    txns.push_back(Seq(db, "transfer_a_to_c",
                       {{K::kLock, "alice"}, {K::kLock, "carol"},
                        {K::kUnlock, "carol"}, {K::kUnlock, "alice"}}));
    txns.push_back(Seq(db, "transfer_d_to_b",
                       {{K::kLock, "bob"}, {K::kLock, "dave"},
                        {K::kUnlock, "dave"}, {K::kUnlock, "bob"}}));
    txns.push_back(Seq(db, "audit",
                       {{K::kLock, "alice"}, {K::kLock, "bob"},
                        {K::kLock, "carol"}, {K::kLock, "dave"},
                        {K::kUnlock, "dave"}, {K::kUnlock, "carol"},
                        {K::kUnlock, "bob"}, {K::kUnlock, "alice"}}));
    auto sys = TransactionSystem::Create(&db, std::move(txns));
    Analyze("ordered two-phase redesign", *sys);
  }
  return 0;
}
