"""Every benchmark catalog variant through the CLI, checked as the
benchmark checks it.

`benchmarks/workloads.py` lists the catalog's 63 variants,
`benchmarks/reference.json` holds what a known-good commit printed for
each, and `benchmarks/outputs.check` is the benchmark's own check of an
op's exit code and stdout against that reference.  These tests only read
those files.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from toyqft import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    """benchmarks/<name>.py as a module, with no bytecode written there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads, outputs = _load("workloads"), _load("outputs")
REFERENCE = json.loads((BENCH / "reference.json").read_text())
VARIANTS = [op for ops in workloads.CLASSES.values() for op in ops]


def test_catalog_is_the_reference():
    assert len(VARIANTS) == 63
    assert sorted(op.key for op in VARIANTS) == sorted(REFERENCE)


@pytest.mark.parametrize("op", VARIANTS, ids=[op.key for op in VARIANTS])
def test_catalog_variant_matches_reference(tmp_path, op):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(op.scenario))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([op.command, "--scenario", str(path)])
    assert outputs.check(op.command, REFERENCE[op.key], code, out.getvalue()) is None


def test_catalog_outputs_prints_one_sorted_line_per_run(capsys):
    """`tools/catalog_outputs.py` runs every variant in both formats and
    prints each run once, sorted, with what the CLI wrote."""
    path = Path(__file__).resolve().parents[1] / "tools" / "catalog_outputs.py"
    spec = importlib.util.spec_from_file_location("catalog_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    runs = [json.loads(line) for line in lines]
    assert lines == sorted(lines) and len(runs) == 2 * len(VARIANTS)
    assert {(run["key"], run["format"]) for run in runs} == {
        (op.key, fmt) for op in VARIANTS for fmt in ("json", "table")
    }
    for run in runs:
        assert (run["code"], run["stderr"]) == (0, "")
        if run["format"] == "json":
            op = next(op for op in VARIANTS if op.key == run["key"])
            assert outputs.check(op.command, REFERENCE[op.key], 0, run["stdout"]) is None
