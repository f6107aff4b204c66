"""Run alternating benchmark pairs of two checkouts and judge each
end-to-end metric for a regression.

    python3 tools/bench_pairs.py PARENT CHANGE --workload scatter_wide [--pairs 10]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
`benchmarks/run.py --workload W --seed 1 --seconds S --trace 0` once in
each checkout, one process at a time, with S the `run_seconds` of
PARENT's `BENCHMARK.json`; odd pairs run PARENT first, even pairs CHANGE
first.  Python runs with -B, so no bytecode is written under
`benchmarks/`; run.py keeps its own result files in each checkout's
`.bench_out/`.  Each pair prints one line as it ends.

Then, for each end-to-end metric of PARENT's `BENCHMARK.json`, it prints
both medians, the parent's quartiles and their spread relative to its
median, the pairs the change wins (ties count for neither) and a verdict:

- `not worse` when every change run reads better than every parent run;
- otherwise `unresolved` when the parent's quartile spread is wider than
  the metric's bound, since a move within that spread cannot be told
  from noise;
- otherwise `worse` when the change's median is worse than the parent's
  by more than the bound, and `not worse` when it is not.

A last row compares the share of ops that failed: `worse` when the
change's share is larger.  Only the standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 1


def run_once(checkout, workload, seconds):
    """The result line (the last stdout line) of one untraced benchmark
    run in `checkout`."""
    command = [
        sys.executable, "-B", "benchmarks/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def judge(parent, change, better, bound):
    """The row of one metric from its parent and change values, pair by
    pair: medians, parent quartiles, relative spread and worsening,
    change wins and the verdict."""
    sign = 1 if better == "lower" else -1  # sign * (a - b) > 0: a is worse
    p50, c50 = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / abs(p50)
    worsening = sign * (c50 - p50) / abs(p50)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "not worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "worse" if worsening > bound else "not worse"
    return {
        "parent_p50": p50, "change_p50": c50, "parent_q1": q1, "parent_q3": q3,
        "spread": spread, "worsening": worsening, "wins": wins, "verdict": verdict,
    }


def summary(parent_runs, change_runs, end_to_end):
    """The summary table's lines for the result lines of paired runs
    (`run_once`) and BENCHMARK.json's `end_to_end` metrics."""
    lines = [
        f"{'metric':<12} {'parent_p50':>11} {'change_p50':>11} {'parent_q1-q3':>23} "
        f"{'spread':>7} {'worse_by':>8} {'bound':>6} {'wins':>6}  verdict"
    ]
    for metric in end_to_end:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        row = judge(parent, change, metric["better"], metric["bound"])
        quartiles = f"{row['parent_q1']:.4g}-{row['parent_q3']:.4g}"
        lines.append(
            f"{name:<12} {row['parent_p50']:>11.4g} {row['change_p50']:>11.4g} "
            f"{quartiles:>23} {row['spread']:>7.1%} {row['worsening']:>+8.1%} "
            f"{metric['bound']:>6.0%} {row['wins']:>2}/{len(parent):<3}  {row['verdict']}"
        )
    failed = [sum(run["failed"] for run in runs) for runs in (parent_runs, change_runs)]
    attempted = [sum(run["attempted"] for run in runs) for runs in (parent_runs, change_runs)]
    worse = failed[1] * attempted[0] > failed[0] * attempted[1]
    lines.append(
        f"failed ops: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]}"
        f"  {'worse' if worse else 'not worse'}"
    )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    sides = [(args.parent, []), (args.change, [])]
    for pair in range(1, args.pairs + 1):
        for checkout, runs in sides if pair % 2 else sides[::-1]:
            runs.append(run_once(checkout, args.workload, seconds))
        values = "  ".join(
            f"{name} " + "/".join(f"{runs[-1]['metrics'][name]['value']:.4g}" for _, runs in sides)
            for name in names
        )
        first = "parent" if pair % 2 else "change"
        print(f"pair {pair} ({first} first), parent/change: {values}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {seconds} s runs")
    (_, parent_runs), (_, change_runs) = sides
    print("\n".join(summary(parent_runs, change_runs, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
