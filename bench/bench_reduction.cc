// Experiment E2 (Theorem 2): the reduction from 3SAT' is linear-size and
// cheap to build, witness prefixes are cheap to produce and check, while
// the DECISION cost (here: DPLL on the formula, standing in for any exact
// deadlock decision) grows superpolynomially — the content of
// coNP-completeness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "analysis/sat/dpll.h"
#include "analysis/sat/reduction.h"
#include "analysis/sat/threesat_prime.h"
#include "core/reduction_graph.h"

namespace wydb {
namespace {

CnfFormula Instance(int vars, uint64_t seed) {
  ThreeSatPrimeGenOptions opts;
  opts.num_vars = vars;
  opts.seed = seed;
  auto f = GenerateThreeSatPrime(opts);
  if (!f.ok()) std::abort();
  return std::move(*f);
}

bool Mentions(const std::vector<Literal>& clause, int var) {
  return std::any_of(clause.begin(), clause.end(),
                     [&](const Literal& l) { return l.var == var; });
}

int Positives(const std::vector<Literal>& clause) {
  return static_cast<int>(std::count_if(
      clause.begin(), clause.end(),
      [](const Literal& l) { return l.positive; }));
}

// A satisfiable instance, by construction: the random 3SAT' instance of
// `seed` with a positive literal moved into every all-negative clause, so
// the all-true assignment is a model. (At the default ceil(3n/2) clauses
// random 3SAT' is almost never satisfiable from 32 variables up: nearly
// every instance has an all-negative clause.) Each fix swaps a negative
// literal of the all-negative clause with a positive one of a clause
// that keeps another positive literal, so every variable still occurs
// twice positive and once negative, and the 3SAT' shape holds.
CnfFormula SatInstance(int vars, uint64_t seed) {
  std::vector<std::vector<Literal>> clauses = Instance(vars, seed).clauses();
  for (std::vector<Literal>& a : clauses) {
    bool fixed = Positives(a) > 0;
    for (Literal& neg : a) {
      for (std::vector<Literal>& b : clauses) {
        if (fixed || Positives(b) < 2 || Mentions(b, neg.var)) continue;
        for (Literal& pos : b) {
          if (pos.positive && !Mentions(a, pos.var)) {
            std::swap(neg, pos);
            fixed = true;
            break;
          }
        }
      }
    }
    if (!fixed) std::abort();
  }
  CnfFormula f(vars, std::move(clauses));
  if (!ValidateThreeSatPrime(f).ok() ||
      !f.IsSatisfiedBy(std::vector<bool>(vars, true))) {
    std::abort();
  }
  return f;
}

void BM_ReductionConstruction(benchmark::State& state) {
  CnfFormula f = Instance(static_cast<int>(state.range(0)), 3);
  int steps = 0;
  for (auto _ : state) {
    auto red = SatReduction::FromFormula(f);
    if (!red.ok()) state.SkipWithError("reduction failed");
    steps = red->system().TotalSteps();
    benchmark::DoNotOptimize(red);
  }
  state.counters["txn_steps"] = steps;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReductionConstruction)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

void BM_WitnessPrefixAndCycleCheck(benchmark::State& state) {
  CnfFormula f = SatInstance(static_cast<int>(state.range(0)), 3);
  auto sat = SolveDpll(f);
  if (!sat.ok() || !sat->satisfiable) {
    state.SkipWithError("instance unsat");
    return;
  }
  auto red = SatReduction::FromFormula(f);
  if (!red.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  for (auto _ : state) {
    auto prefix = red->WitnessPrefix(sat->assignment);
    ReductionGraph rg(*prefix);
    bool cyc = rg.HasCycle();
    if (!cyc) state.SkipWithError("witness not cyclic");
    benchmark::DoNotOptimize(cyc);
  }
}
BENCHMARK(BM_WitnessPrefixAndCycleCheck)->RangeMultiplier(2)->Range(4, 128);

void BM_DpllDecision(benchmark::State& state) {
  CnfFormula f = Instance(static_cast<int>(state.range(0)), 3);
  uint64_t decisions = 0;
  for (auto _ : state) {
    auto r = SolveDpll(f);
    if (!r.ok()) state.SkipWithError("budget");
    decisions = r->decisions;
    benchmark::DoNotOptimize(r);
  }
  state.counters["decisions"] = static_cast<double>(decisions);
}
BENCHMARK(BM_DpllDecision)->RangeMultiplier(2)->Range(4, 256);

void BM_CycleDecodeAssignment(benchmark::State& state) {
  CnfFormula f = SatInstance(static_cast<int>(state.range(0)), 3);
  auto sat = SolveDpll(f);
  if (!sat.ok() || !sat->satisfiable) {
    state.SkipWithError("instance unsat");
    return;
  }
  auto red = SatReduction::FromFormula(f);
  auto prefix = red->WitnessPrefix(sat->assignment);
  ReductionGraph rg(*prefix);
  auto cycle = rg.FindGlobalCycle();
  for (auto _ : state) {
    auto decoded = red->DecodeAssignment(cycle);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CycleDecodeAssignment)->RangeMultiplier(2)->Range(4, 64);

}  // namespace
}  // namespace wydb
