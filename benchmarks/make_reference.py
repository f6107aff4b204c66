"""Regenerate reference.json: what the current toyqft prints for every
catalog variant in `workloads.py`.

    python3 benchmarks/make_reference.py

The benchmark counts an op as failed when its output leaves this
reference, so regenerate it only with a commit whose results are known
to be right, and only when the catalog changes.
"""

import json
import sys
import tempfile
from pathlib import Path

import outputs
import run
import workloads


def main():
    run.prepare()
    from toyqft import cli

    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.json")
        for variants in workloads.CLASSES.values():
            for op in variants:
                Path(path).write_text(json.dumps(op.scenario))
                seconds, code, out, err = run.run_op(cli, [op.command, "--scenario", path])
                if code != 0:
                    raise SystemExit(f"{op.key}: exit code {code}\n{err}")
                dimension = None
                if op.command == "spectrum":
                    _, _, dims, _ = run.run_op(cli, ["dims", "--scenario", path])
                    dimension = json.loads(dims)["rows"][0][1]
                summary = outputs.summarize(op.command, json.loads(out), dimension)
                reference[op.key] = dict(summary, scenario=op.scenario)
                print(f"{op.key}: {seconds:.3f} s", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
