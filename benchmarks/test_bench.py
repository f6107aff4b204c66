"""Self-test of the benchmark harness; takes a few seconds.

    python3 -m pytest benchmarks -q
"""

import json

import pytest

import outputs
import run
import spans
import workloads

run.prepare()

from toyqft import cli, ladder, scatter  # noqa: E402
from toyqft.fock import build_space  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload(tmp_path, name, trace):
    result, report = run.run_workload(name, seed=7, seconds=0, trace=trace, tiny=True, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {key: m["unit"] for key, m in result["metrics"].items()}
    assert units == declared(kind)
    assert report["env"]["seed"] == 7 and report["env"]["blas_threads"] == 1
    assert not list(tmp_path.glob("work-*"))


def test_benchmark_names_its_workloads():
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


def test_same_seed_same_ops():
    spec = workloads.WORKLOADS["mix_small"]
    first, second = workloads.rounds(spec, 3), workloads.rounds(spec, 3)
    assert [next(first) for _ in range(3)] == [next(second) for _ in range(3)]
    assert next(workloads.rounds(spec, 3)) != next(workloads.rounds(spec, 4))


def test_reference_holds_every_catalog_scenario():
    reference = json.loads(run.REFERENCE.read_text())
    catalog = {op.key: op.scenario for ops in workloads.CLASSES.values() for op in ops}
    assert {key: entry["scenario"] for key, entry in reference.items()} == catalog


def _corrupt(report):
    """Wrong answers a broken program might print."""
    report = dict(report)
    if report["kind"] == "scatter":
        report["rows"] = [[report["rows"][0][0], report["rows"][0][1] + 1e-3, None]] + report["rows"][1:]
    elif report["kind"] == "spectrum":
        report["rows"] = [[report["rows"][0][0] + 1e-6, report["rows"][0][1]]] + report["rows"][1:]
    elif report["kind"] == "verify":
        report["rows"] = [report["rows"][0][:2] + ["FAIL"]] + report["rows"][1:]
    return report


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", lambda report, fmt: emit(_corrupt(report), fmt))
    result, report = run.run_workload("mix_small", seed=7, seconds=0, trace=False, tiny=True, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == report["ops"] == 4
    assert report["failed_frac"] == 1.0


def _scatter_report(probabilities):
    rows = [[f"s{i}", p, True] for i, p in enumerate(probabilities)]
    return json.dumps({"kind": "scatter", "in_state": "x", "rows": rows})


@pytest.mark.parametrize(
    "got, wrong",
    [
        ([0.5, 0.5], False),
        ([0.5 + 1e-9, 0.5 - 1e-9], False),  # within the eigen-solver allowance
        ([0.5 + 2e-7, 0.5 - 2e-7], True),
        ([0.5, 0.5 - 1e-9], True),  # column no longer sums to 1
        ([0.5, 0.5, 1e-14], False),
    ],
)
def test_scatter_check(got, wrong):
    expected = {"in_state": "x", "probabilities": {"s0": 0.5, "s1": 0.5}}
    reason = outputs.check("scatter", expected, 0, _scatter_report(got))
    assert (reason is not None) == wrong


def test_exit_code_and_garbage_fail():
    expected = {"in_state": "x", "probabilities": {"s0": 1.0}}
    assert outputs.check("scatter", expected, 0, _scatter_report([1.0])) is None
    assert outputs.check("scatter", expected, 2, _scatter_report([1.0])) is not None
    assert outputs.check("scatter", expected, None, "") is not None
    assert outputs.check("scatter", expected, 0, "Traceback") is not None


def test_self_times_add_up_to_the_span_time():
    space = build_space(scatter.build_roster(1, 1, 1), 2)
    recorder = spans.SpanRecorder()
    with spans.traced(recorder):
        scatter.hamiltonian(space, 1, 1, 1, 1)
    assert not hasattr(ladder.annihilator, "__wrapped__")

    roots = [s for s in recorder.spans if s.parent is None]
    assert [s.name for s in roots] == ["scatter.hamiltonian", "trace.attrs"]
    own = spans.self_times(recorder.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(sum(s.duration for s in roots), rel=1e-9)
    names = {s.name for s in recorder.spans}
    assert {"ladder.annihilator", "ladder.ac_operator", "spacetime.field_at"} <= names


def test_per_op_self_times_and_remainder_add_up(tmp_path):
    _, report = run.run_workload("scatter_wide", seed=7, seconds=0, trace=True, tiny=True, out_dir=tmp_path)
    for op in report["per_op"]:
        assert sum(op["self_s"].values()) + op["remainder_s"] == pytest.approx(op["wall_s"], rel=1e-9)
        assert 0 <= op["remainder_s"] < 0.5 * op["wall_s"]
        assert {"cli", "fock", "ladder", "scatter", "spectral"} <= set(op["self_s"])
    lines = (tmp_path / "scatter_wide-seed7.spans.jsonl").read_text().splitlines()
    assert lines and all("self" in json.loads(line) for line in lines)
