"""toyqft benchmark: closed-loop CLI workloads with checked outputs.

    python3 benchmarks/run.py --workload mix_small --seed 1 --seconds 8 --trace 0
    python3 -m pytest benchmarks -q        # self-test, a few seconds

Run from anywhere; the toyqft sources are taken from `src/` next to this
directory.  One process acts as a single closed-loop client: it calls
`toyqft.cli.main` on one scenario file at a time, each call starting when
the previous one has returned, in rounds drawn from `workloads.py` until
`--seconds` have passed (at least one round).  BLAS is pinned to one
thread.  Every output is checked against `reference.json`.

With `--trace 0` the last stdout line carries the end-to-end metrics:
setup_s (median start-up of a fresh interpreter importing toyqft.cli),
op_p50_s, ops_per_s and peak_rss_mb.  With `--trace 1` the same ops run
twice more, untraced and then with every layer's public functions
wrapped in spans (`spans.py`); the last line carries the per-layer
metrics, the overhead of the traced pass over the untraced one, and the
spans go to `.bench_out/`.  The line before the last one holds the
environment, sample counts, failed_frac and op_p90_s.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import outputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 11
WARMUP = "sc_bb_r1_s2_x0"


def prepare():
    """Pin BLAS threads and put the checkout's sources first on the path.
    Call before numpy is imported, or the pinning has no effect."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "toyqft" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no toyqft sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def environment(seed, load1):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "loadavg_1m": load1,
        "seed": seed,
    }


def measure_setup(runs):
    """Median wall time of a fresh interpreter importing toyqft.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import toyqft.cli"], env=env, check=True, timeout=120
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, argv):
    """One CLI call: (seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _argv(op, paths):
    return [op.command, "--scenario", paths[op.key]]


def run_stream(cli, spec, seed, seconds, paths):
    """Closed loop over whole rounds until `seconds` have passed."""
    ops, results = [], []
    start = time.perf_counter()
    for round_ops in workloads.rounds(spec, seed):
        for op in round_ops:
            ops.append(op)
            results.append(run_op(cli, _argv(op, paths)))
        if time.perf_counter() - start >= seconds:
            break
    return ops, results, time.perf_counter() - start


def failures(ops, results, reference):
    """(op key, reason) for every op whose output is wrong."""
    bad = []
    for op, (_, code, out, err) in zip(ops, results):
        reason = outputs.check(op.command, reference[op.key], code, out)
        if reason is not None:
            bad.append((op.key, reason + (f"\n{err}" if err else "")))
    return bad


def write_scenarios(spec, workdir):
    paths = {}
    for name in list(spec) + [WARMUP]:
        for op in workloads.CLASSES[name]:
            path = workdir / f"{len(paths)}.json"
            path.write_text(json.dumps(op.scenario))
            paths[op.key] = str(path)
    return paths


def trace_passes(cli, ops, paths, reference, spans_path):
    """Replay `ops` untraced, then traced; write the spans to spans_path.
    Returns (per-layer metrics, per-op summaries, failures of both passes)."""
    # The first pass ran in a fresh process; repeat it untraced so that
    # both passes compared here start equally warm.
    untraced = [run_op(cli, _argv(op, paths)) for op in ops]
    recorder = spans.SpanRecorder()
    traced = []
    with spans.traced(recorder):
        for i, op in enumerate(ops):
            recorder.op = i
            traced.append(run_op(cli, _argv(op, paths)))
    traced_bad = failures(ops, traced, reference)
    walls = [r[0] for r in traced]
    metrics = spans.layer_metrics(
        recorder.spans, walls, sum(r[0] for r in untraced), len(traced_bad)
    )
    per_op = [
        dict(summary, key=op.key)
        for op, summary in zip(ops, spans.op_summaries(recorder.spans, walls))
    ]
    with open(spans_path, "w") as fh:
        for span, own in zip(recorder.spans, spans.self_times(recorder.spans)):
            fh.write(json.dumps(dict(asdict(span), self=own)) + "\n")
    return metrics, per_op, failures(ops, untraced, reference) + traced_bad


def run_workload(name, seed, seconds, trace, tiny=False, out_dir=OUT):
    """Run one workload; returns (result line, report).  `tiny` swaps in
    millisecond-sized scenarios of the same pipeline."""
    load1 = _loadavg()
    from toyqft import cli

    spec = (workloads.TINY_WORKLOADS if tiny else workloads.WORKLOADS)[name]
    reference = json.loads(REFERENCE.read_text())
    os.environ["TOYQFT_SEED"] = str(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        paths = write_scenarios(spec, workdir)
        setup_s = None if trace else measure_setup(1 if tiny else SETUP_RUNS)
        run_op(cli, _argv(workloads.CLASSES[WARMUP][0], paths))
        ops, results, wall = run_stream(cli, spec, seed, seconds, paths)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bad = failures(ops, results, reference)
        times = [r[0] for r in results]
        report = {
            "workload": name,
            "seconds": seconds,
            "trace": int(trace),
            "env": environment(seed, load1),
            "ops": len(ops),
            "wall_s": wall,
            "failed_frac": len(bad) / len(ops),
            # Only where at least ten samples lie beyond it.
            "op_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        }
        if not trace:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_p50_s": {"value": statistics.median(times), "unit": "s"},
                "ops_per_s": {"value": (len(ops) - len(bad)) / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
            attempted = len(ops)
        else:
            metrics, report["per_op"], more = trace_passes(
                cli, ops, paths, reference, out_dir / f"{name}-seed{seed}.spans.jsonl"
            )
            bad += more
            attempted = 3 * len(ops)
        report["failures"] = bad[:5]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": metrics,
    }
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1)
    )
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report.pop("per_op", None)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
