"""Output checks: every CLI op's stdout against `reference.json`.

The reference holds, per catalog variant, what the seed commit printed.
Scatter probabilities may differ from it by PROB_TOL, which admits a
change of eigen-solver path (~1e-8) and is far below any probability the
tables are read for; the in-column probabilities must sum to 1 within
SUM_TOL.  Spectra must keep every multiplicity and every eigenvalue within
EIG_TOL (relative to max(1, |lambda|)); verify must report every identity
as passing.
"""

import json
import math

PROB_TOL = 1e-7
SUM_TOL = 1e-10
EIG_TOL = 1e-8


def summarize(command, report, dimension=None):
    """The part of a CLI report the reference keeps."""
    if command == "scatter":
        return {
            "in_state": report["in_state"],
            # Rows below 1e-12 are kept out; a missing row counts as 0.
            "probabilities": {
                label: p for label, p, _ in report["rows"] if p > 1e-12
            },
        }
    if command == "spectrum":
        return {"dimension": dimension, "groups": report["rows"]}
    return {}


def _scatter(expected, report):
    if report["in_state"] != expected["in_state"]:
        return f"in_state {report['in_state']!r}"
    got = {label: p for label, p, _ in report["rows"]}
    if len(got) != len(report["rows"]):
        return "repeated out-state"
    total = math.fsum(got.values())
    if abs(total - 1.0) > SUM_TOL:
        return f"probabilities sum to {total!r}"
    ref = expected["probabilities"]
    for label in got.keys() | ref.keys():
        diff = abs(got.get(label, 0.0) - ref.get(label, 0.0))
        if diff > PROB_TOL:
            return f"P({label}) off by {diff:.3g}"
    return None


def _spectrum(expected, report):
    rows = report["rows"]
    if sum(m for _, m in rows) != expected["dimension"]:
        return "multiplicities do not sum to the dimension"
    ref = expected["groups"]
    if [m for _, m in rows] != [m for _, m in ref]:
        return "multiplicities differ"
    for (lam, _), (want, _) in zip(rows, ref):
        if abs(lam - want) > EIG_TOL * max(1.0, abs(want)):
            return f"eigenvalue {lam!r}, expected {want!r}"
    return None


def _verify(expected, report):
    failing = [row[0] for row in report["rows"] if row[2] != "pass"]
    return f"identities failed: {failing}" if failing else None


CHECKS = {"scatter": _scatter, "spectrum": _spectrum, "verify": _verify}


def check(command, expected, code, stdout):
    """None when the op's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if report.get("kind") != command:
        return f"report kind {report.get('kind')!r}"
    try:
        return CHECKS[command](expected, report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
