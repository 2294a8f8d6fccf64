#!/usr/bin/env python3
"""Benchmark perf-regression guard: diff two google-benchmark JSON files.

Compares a candidate google-benchmark JSON dump against a baseline and
fails (exit 1) when the *geomean* ratio candidate/baseline over all
matched benchmarks regresses by more than the threshold (default 15%)
for either guarded metric:

  * ns_per_state       — per-state cost of the search engines (falls
                         back to real_time for rows without the
                         counter),
  * states             — states interned/visited (the reduction
                         engines' whole point is to shrink this),
  * bytes_per_state    — store bytes per interned state (the
                         memory-mode series of DESIGN.md §9 exist to
                         shrink this),
  * lock_ops_per_sec   — live-engine lock-table throughput (HIGHER is
                         better: the fast-path-vs-baseline series of
                         DESIGN.md §10 exist to raise this), and
  * commits_per_sec    — live-engine commit throughput (higher is
                         better).

For lower-is-better metrics a regression is geomean ratio
candidate/baseline > 1 + threshold; for higher-is-better metrics it is
geomean ratio < 1 - threshold.

Benchmarks are matched by exact `name`; rows present in only one file
are reported but never fail the run (series come and go), and rows that
errored (`error_occurred`) are skipped. `ns_per_state` is in
nanoseconds; a value below 1 is a unit error (a counter still recorded
in seconds) and fails the run with exit 2 before anything is compared.
Geomeans are used so one noisy series cannot hide a broad regression —
or fail the run on its own.

Both files must carry a top-level `host` block (written by
tools/stamp_bench_host.py, in the format of e2ebench/run.py's `host`
line), and the two blocks must agree on nproc, build_type, compiler and
kernel: wall-clock rows from different hosts or builds are not
comparable. A missing or mismatched block exits 2 before anything is
compared; git_head may differ.

Usage:
  tools/compare_bench.py BASELINE.json CANDIDATE.json [--threshold 0.15]

CI runs this as an *advisory* job (continue-on-error) against the
committed baseline; a hosted runner is not the recording host, so there
it reports the host mismatch. Run it locally on the recording host for a
binding check:

  ./build/bench_statespace --benchmark_out=new.json \
      --benchmark_out_format=json
  python3 tools/stamp_bench_host.py build new.json
  python3 tools/compare_bench.py BENCH_statespace.json new.json
"""

import argparse
import json
import math
import sys


# metric name -> direction: +1 = lower is better (regression when the
# geomean ratio rises past 1 + threshold), -1 = higher is better
# (regression when it falls past 1 - threshold).
METRICS = {
    "ns_per_state": +1,
    "states": +1,
    "bytes_per_state": +1,
    "lock_ops_per_sec": -1,
    "commits_per_sec": -1,
}


# Host fields two comparable files must share (as e2ebench/compare.py).
HOST_KEYS = ("nproc", "build_type", "compiler", "kernel")


def load(path: str) -> tuple[dict | None, dict[str, dict]]:
    """Returns (host block or None, rows by name)."""
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for row in data.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        if row.get("error_occurred"):
            continue
        rows[row["name"]] = row
    return data.get("host"), rows


def host_errors(base_path: str, base_host, cand_path: str,
                cand_host) -> list[str]:
    errors = [f"{path}: no host block (tools/stamp_bench_host.py writes it)"
              for path, host in ((base_path, base_host),
                                 (cand_path, cand_host))
              if not isinstance(host, dict)]
    if errors:
        return errors
    return [f"host {key} differs: {base_host.get(key)!r} vs "
            f"{cand_host.get(key)!r}"
            for key in HOST_KEYS if base_host.get(key) != cand_host.get(key)]


def unit_errors(path: str, rows: dict[str, dict]) -> list[str]:
    """Rows whose ns_per_state cannot be nanoseconds: no search step
    takes under a nanosecond, so such a value was recorded in seconds."""
    return [
        f"{path}: {name}: ns_per_state {row['ns_per_state']:g} is below "
        f"1 ns — recorded in seconds, not nanoseconds?"
        for name, row in rows.items()
        if 0 < row.get("ns_per_state", 1.0) < 1.0
    ]


def metric_value(row: dict, metric: str):
    value = row.get(metric)
    if value is None and metric == "ns_per_state":
        value = row.get("real_time")  # Rows without a states counter.
    if value is None or value <= 0:
        return None
    return float(value)


def geomean(ratios: list[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON files; exit 1 on "
        "geomean regression beyond the threshold."
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed geomean regression per metric (default 0.15 = 15%%)",
    )
    args = parser.parse_args()

    base_host, base = load(args.baseline)
    cand_host, cand = load(args.candidate)
    errors = host_errors(args.baseline, base_host, args.candidate, cand_host)
    errors += unit_errors(args.baseline, base) + unit_errors(args.candidate,
                                                            cand)
    if errors:
        for line in errors:
            print(f"compare_bench: {line}", file=sys.stderr)
        return 2
    matched = sorted(base.keys() & cand.keys())
    only_base = sorted(base.keys() - cand.keys())
    only_cand = sorted(cand.keys() - base.keys())
    if only_base:
        print(f"note: {len(only_base)} series only in baseline "
              f"(e.g. {only_base[0]})")
    if only_cand:
        print(f"note: {len(only_cand)} series only in candidate "
              f"(e.g. {only_cand[0]})")
    if not matched:
        print("compare_bench: no matching benchmark names", file=sys.stderr)
        return 1

    failed = False
    for metric, direction in METRICS.items():
        ratios = []
        worst = (1.0, None)
        for name in matched:
            b = metric_value(base[name], metric)
            c = metric_value(cand[name], metric)
            if b is None or c is None:
                continue
            ratio = c / b
            ratios.append(ratio)
            # "Worse" is a higher ratio for lower-is-better metrics and
            # a lower ratio for higher-is-better ones.
            if (ratio - worst[0]) * direction > 0:
                worst = (ratio, name)
        if not ratios:
            print(f"{metric}: no comparable rows")
            continue
        gm = geomean(ratios)
        verdict = "OK"
        if direction > 0 and gm > 1.0 + args.threshold:
            verdict = f"REGRESSION (> +{args.threshold:.0%})"
            failed = True
        elif direction < 0 and gm < 1.0 - args.threshold:
            verdict = f"REGRESSION (< -{args.threshold:.0%})"
            failed = True
        better = "lower" if direction > 0 else "higher"
        print(f"{metric}: geomean ratio {gm:.3f} over {len(ratios)} "
              f"series ({better} is better) — {verdict}")
        if worst[1] is not None:
            print(f"  worst single series: {worst[1]} ({worst[0]:.3f}x)")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
