// Shared helpers for the wydb test suites.
#ifndef WYDB_TESTS_TEST_UTIL_H_
#define WYDB_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/system.h"
#include "core/transaction.h"
#include "core/transaction_builder.h"
#include "gen/system_gen.h"

namespace wydb {
namespace testutil {

/// Database with entities spread over sites: spec like
/// {{"s1", {"x", "y"}}, {"s2", {"z"}}}.
inline std::unique_ptr<Database> MakeDb(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        spec) {
  auto db = std::make_unique<Database>();
  for (const auto& [site, entities] : spec) {
    if (db->FindSite(site) == kInvalidSite) {
      auto s = db->AddSite(site);
      if (!s.ok()) std::abort();
    }
    for (const auto& e : entities) {
      auto r = db->AddEntityAtSite(e, site);
      if (!r.ok()) std::abort();
    }
  }
  return db;
}

/// Database where every entity lives at its own site (any DAG is then a
/// valid transaction).
inline std::unique_ptr<Database> MakeSpreadDb(
    const std::vector<std::string>& entities) {
  auto db = std::make_unique<Database>();
  for (const auto& e : entities) {
    auto r = db->AddEntityAtSite(e, "site_" + e);
    if (!r.ok()) std::abort();
  }
  return db;
}

/// Total-order transaction from tokens like {"Lx", "Sy", "Uy", "Ux"}.
/// Token = 'L' (exclusive lock), 'S' (shared lock) or 'U' (unlock)
/// followed by the entity name — the .wydb step syntax.
inline Transaction MakeSeq(const Database* db, const std::string& name,
                           const std::vector<std::string>& tokens) {
  TransactionBuilder b(db, name);
  int prev = -1;
  for (const auto& tok : tokens) {
    const std::string entity = tok.substr(1);
    int cur = tok[0] == 'L'   ? b.Lock(entity)
              : tok[0] == 'S' ? b.LockShared(entity)
                              : b.Unlock(entity);
    if (prev != -1) b.Arc(prev, cur);
    prev = cur;
  }
  auto t = b.Build();
  if (!t.ok()) std::abort();
  return std::move(*t);
}

/// System from already-built transactions.
inline TransactionSystem MakeSystem(const Database* db,
                                    std::vector<Transaction> txns) {
  auto sys = TransactionSystem::Create(db, std::move(txns));
  if (!sys.ok()) std::abort();
  return std::move(*sys);
}

/// The all-exclusive demotion of a system: identical transactions and
/// precedence arcs, every shared lock demoted to exclusive. The identity
/// transform on X-only systems; on mixed systems it only ADDS conflicts.
/// The returned system borrows the same Database as `sys`.
inline TransactionSystem DemoteToX(const TransactionSystem& sys) {
  std::vector<Transaction> txns;
  txns.reserve(sys.num_transactions());
  for (int i = 0; i < sys.num_transactions(); ++i) {
    const Transaction& t = sys.txn(i);
    std::vector<Step> steps;
    steps.reserve(t.num_steps());
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      Step s = t.step(v);
      s.mode = LockMode::kExclusive;
      steps.push_back(s);
    }
    std::vector<std::pair<int, int>> arcs;
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      for (NodeId w : t.graph().OutNeighbors(v)) arcs.emplace_back(v, w);
    }
    auto nt = Transaction::Create(&sys.db(), t.name(), std::move(steps),
                                  std::move(arcs));
    if (!nt.ok()) std::abort();
    txns.push_back(std::move(*nt));
  }
  return MakeSystem(&sys.db(), std::move(txns));
}

/// The diff_fuzz corpus (tests/diff_fuzz_test.cc). X-only case i is
/// DiffFuzzShape(kDiffFuzzBaseSeed + i) for i < kDiffFuzzCases; mixed S/X
/// case i is DiffFuzzMixedShape(DiffFuzzMixedSeed(i)) for
/// i < kDiffFuzzCases / 2.
constexpr uint64_t kDiffFuzzBaseSeed = 0x5EED0FF1CE5EED01ULL;
constexpr int kDiffFuzzCases = 200;

inline uint64_t DiffFuzzMixedSeed(int i) {
  return kDiffFuzzBaseSeed ^ (0xABCD0000ULL + static_cast<uint64_t>(i));
}

/// Shapes are drawn from the seed too, so the corpus covers site/txn/
/// entity mixes without a hand-kept table.
inline RandomSystemOptions DiffFuzzShape(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  RandomSystemOptions opts;
  opts.num_sites = 1 + static_cast<int>(rng.NextBelow(3));
  opts.entities_per_site = 2 + static_cast<int>(rng.NextBelow(2));
  opts.num_transactions = 2 + static_cast<int>(rng.NextBelow(3));
  opts.entities_per_txn = 2 + static_cast<int>(rng.NextBelow(2));
  opts.two_phase = rng.NextBelow(2) == 1;
  opts.seed = seed;
  return opts;
}

/// The same shape with a shared fraction drawn from the seed (20-70%).
inline RandomSystemOptions DiffFuzzMixedShape(uint64_t seed) {
  RandomSystemOptions opts = DiffFuzzShape(seed);
  Rng rng(seed ^ 0x5A5A5A5A5A5A5A5AULL);
  opts.shared_fraction = 0.2 + 0.1 * static_cast<double>(rng.NextBelow(6));
  return opts;
}

}  // namespace testutil
}  // namespace wydb

#endif  // WYDB_TESTS_TEST_UTIL_H_
