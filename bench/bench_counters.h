// Counters shared by the search benchmarks.
#ifndef WYDB_BENCH_BENCH_COUNTERS_H_
#define WYDB_BENCH_BENCH_COUNTERS_H_

#include <benchmark/benchmark.h>

#include <cstdint>

namespace wydb {

/// The `ns_per_state` counter: measured time (real time under
/// UseRealTime, else CPU time) per visited state, in nanoseconds.
/// kIsRate | kInvert turns a count into seconds per unit, so counting the
/// states in billions makes the unit a nanosecond. The console still
/// prints the seconds suffix ("1.1ks" is 1100 ns); the JSON holds the
/// bare number, which compare_bench.py reads as nanoseconds.
inline benchmark::Counter NsPerState(uint64_t states_per_iteration,
                                     benchmark::IterationCount iterations) {
  return benchmark::Counter(
      static_cast<double>(states_per_iteration) *
          static_cast<double>(iterations) / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

}  // namespace wydb

#endif  // WYDB_BENCH_BENCH_COUNTERS_H_
