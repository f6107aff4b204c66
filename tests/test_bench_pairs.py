"""The verdicts of `tools/bench_pairs.py` on fixed numbers, with no run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize(
    "parent, change, better, verdict, wins",
    [
        # 5% slower, inside a 25% bound and a 2% parent spread
        (STEADY, [v * 1.05 for v in STEADY], "lower", "not worse", 0),
        # 30% slower: past the bound
        (STEADY, [v * 1.3 for v in STEADY], "lower", "worse", 0),
        # on a higher-is-better metric a 30% drop is worse, a rise is not
        (STEADY, [v * 0.7 for v in STEADY], "higher", "worse", 0),
        (STEADY, [v * 1.3 for v in STEADY], "higher", "not worse", 10),
        # a bimodal parent: its quartiles span more than the bound
        ([1.0, 1.6] * 5, [1.0, 1.6] * 5, "lower", "unresolved", 0),
        # ... unless every change run beats every parent run
        ([1.0, 1.6] * 5, [0.9] * 10, "lower", "not worse", 10),
    ],
)
def test_judge_verdicts(parent, change, better, verdict, wins):
    row = bench_pairs.judge(parent, change, better, 0.25)
    assert (row["verdict"], row["wins"]) == (verdict, wins)


def test_judge_reports_medians_quartiles_and_ties():
    """Medians, the parent's quartiles (statistics.quantiles, n=4) and
    their spread over its median; a tie is no win."""
    row = bench_pairs.judge([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 4.0, 3.0], "lower", 0.25)
    assert (row["parent_p50"], row["change_p50"]) == (2.5, 2.0)
    assert (row["parent_q1"], row["parent_q3"]) == (1.25, 3.75)
    assert row["spread"] == 1.0 and row["worsening"] == -0.2
    assert row["wins"] == 2 and row["verdict"] == "unresolved"


def result(op_p50_s, failed=0):
    """A result line of benchmarks/run.py with one end-to-end metric."""
    return {"attempted": 100, "failed": failed, "metrics": {"op_p50_s": {"value": op_p50_s}}}


def test_summary_rows():
    """One row per end-to-end metric and a row of failed ops, `worse`
    when the change fails a larger share."""
    end_to_end = [{"name": "op_p50_s", "better": "lower", "bound": 0.25}]
    parent = [result(v) for v in STEADY]
    lines = bench_pairs.summary(parent, [result(v * 1.3) for v in STEADY], end_to_end)
    assert len(lines) == 3 and lines[0].startswith("metric")
    assert lines[1].split()[0] == "op_p50_s" and lines[1].endswith("  worse")
    assert lines[1].split()[1:3] == ["1", "1.3"] and "0/10" in lines[1]
    assert lines[2] == "failed ops: parent 0/1000, change 0/1000  not worse"
    change = [result(v, failed=i == 0) for i, v in enumerate(STEADY)]
    lines = bench_pairs.summary(parent, change, end_to_end)
    assert lines[1].endswith("  not worse")
    assert lines[2] == "failed ops: parent 0/1000, change 1/1000  worse"
