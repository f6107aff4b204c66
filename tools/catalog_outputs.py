"""Print what the CLI writes for every benchmark catalog variant.

Run from a checkout:

    python3 tools/catalog_outputs.py > outputs.jsonl

It loads that checkout's `src/toyqft` and the 63 variants listed in its
`benchmarks/workloads.py` (read in place, no bytecode written there), runs
each through `cli.main` with `--format json` and with `--format table`,
and prints one JSON line per run, sorted: the variant's key, the format,
the exit code, stdout and stderr.  Two checkouts print the same lines
exactly when every catalog run's output and exit code agree, so comparing
them is one `diff` of the two files.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from toyqft import cli  # noqa: E402  (after the checkout's src is on the path)


def _workloads():
    """benchmarks/workloads.py as a module, with no bytecode written there."""
    spec = importlib.util.spec_from_file_location(
        "catalog_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    ops = [op for ops in _workloads().CLASSES.values() for op in ops]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        for op in ops:
            path.write_text(json.dumps(op.scenario))
            for fmt in ("json", "table"):
                code, out, err = _run([op.command, "--scenario", str(path), "--format", fmt])
                run = {"key": op.key, "format": fmt, "code": code, "stdout": out, "stderr": err}
                lines.append(json.dumps(run, sort_keys=True))
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
