"""Command-line front end: scenario files in, analysis tables out.

Subcommands: dims, verify, spectrum, scatter, lattice.  One scenario file
is one run; reports go to stdout as JSON, CSV or an aligned text table.
Exit codes: 0 success / all identities pass, 1 verification failure,
2 malformed scenario or input error.
"""

import argparse
import csv
import functools
import io
import json
import random
import sys

import numpy as np

from . import __version__
from .errors import CouplingTooLarge, NotFinite, ScenarioError, ToyQFTError, UnknownMode
from .fields import field_spectrum
from .fock import ParticleMode, Statistics, build_space, count_kets
from .ladder import algebra_violations, annihilator, creator
from .scatter import build_roster, probability_table, scatter_column
from .spacetime import hyperboloid, shell_size, space_volume
from .spectral import DEFAULT_GROUP_TOL

# Largest kets x modes, the size of a space's count table, that a scenario
# may ask for (128 MiB of int64 counts); checked before the space is built.
SPACE_BUDGET = 2**24
# Options that take a float: argparse reads a separate "-inf", "-nan" or
# "-1e5" after them as an option, so main joins it on, as in "--tol=-inf".
_FLOAT_OPTIONS = ("--tol", "--coupling")


def _sig12(value):
    """12 significant digits, the table formatting rule."""
    return f"{value:.12g}"


def _load_scenario(path):
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except OSError as exc:
        raise ScenarioError("scenario", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "scenario", f"{path} line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario", "expected a JSON object")
    return scenario


def _typed(value, field, kind, minimum=None):
    """value if it is a `kind` no less than `minimum`, and finite if `kind`
    takes floats; true/false is only a bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ScenarioError(field, f"expected {getattr(kind, '__name__', 'number')}")
    if minimum is not None and not value >= minimum:  # NaN is not >= anything
        raise ScenarioError(field, f"must be >= {minimum}")
    # false for NaN, infinities and integers too large for a float
    if isinstance(1.0, kind) and not abs(value) <= sys.float_info.max:
        raise ScenarioError(field, "must be a finite number")
    return value


_MISSING = object()


def _require(scenario, field, kind=None, minimum=None, default=_MISSING):
    """scenario[field] checked by `_typed` if `kind` is given; `default`
    if the field is absent and one is given."""
    if field not in scenario:
        if default is not _MISSING:
            return default
        raise ScenarioError(field, "required field missing")
    value = scenario[field]
    return value if kind is None else _typed(value, field, kind, minimum)


# The top-level fields each command reads; `main` refuses any other
# (`_known_fields`) before a field is read.  Each nested object's reader
# does the same with that object's fields.
FIELDS = {
    "dims": ("roster", "cutoff_s", "dump_basis"),
    "verify": ("roster", "cutoff_s"),
    "spectrum": ("roster", "cutoff_s", "field", "field2", "self_interaction"),
    "scatter": (
        "mass1", "mass2", "r", "cutoff_s", "x0", "threshold", "statistics", "in_state"
    ),
    "lattice": ("mass", "r", "x0"),
}


def _known_fields(obj, fields, where=""):
    """ScenarioError naming the first field of the object `obj`, in file
    order, that is not in `fields`, as `where` + that field."""
    for field in obj:
        if field not in fields:
            raise ScenarioError(where + field, "unknown field")


def _parse_statistics(text, field):
    try:
        return Statistics(text)
    except ValueError:
        raise ScenarioError(field, f"unknown statistics {text!r}") from None


ROSTER_ENTRY_FIELDS = ("label", "statistics", "mass", "momentum")


def _parse_roster(scenario):
    entries = _require(scenario, "roster", list)
    modes = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"roster[{i}]", "expected object")
        _known_fields(entry, ROSTER_ENTRY_FIELDS, f"roster[{i}].")
        stats = _parse_statistics(
            entry.get("statistics", "fermion"), f"roster[{i}].statistics"
        )
        label = _typed(entry.get("label", f"mode{i}"), f"roster[{i}].label", str)
        mass = _typed(entry.get("mass", 0), f"roster[{i}].mass", int, minimum=0)
        momentum = entry.get("momentum")  # absent or null: unlabeled
        if momentum is not None:
            where = f"roster[{i}].momentum"
            if not (isinstance(momentum, list) and len(momentum) == 4):
                raise ScenarioError(where, "expected [p0, p1, p2, p3]")
            momentum = tuple(_typed(p, where, int) for p in momentum)
        try:
            modes.append(ParticleMode(
                id=i, label=label, statistics=stats, mass=mass, momentum=momentum
            ))
        except ValueError as exc:  # a momentum off the forward mass shell
            raise ScenarioError(f"roster[{i}]", str(exc)) from exc
    return modes


def _check_size(statistics, cutoff):
    """ScenarioError naming cutoff_s if the space at `cutoff` of one mode
    per entry of `statistics` holds more than SPACE_BUDGET kets x modes."""
    fermions = statistics.count(Statistics.FERMION)
    for kets in count_kets(fermions, len(statistics) - fermions, cutoff):
        if kets * len(statistics) > SPACE_BUDGET:
            raise ScenarioError("cutoff_s", f"space exceeds {SPACE_BUDGET} kets x modes")


def _parse_sized_roster(scenario):
    """(modes, cutoff) of a roster whose space fits in SPACE_BUDGET."""
    modes = _parse_roster(scenario)
    cutoff = _require(scenario, "cutoff_s", int, minimum=1)
    _check_size([m.statistics for m in modes], cutoff)
    return modes, cutoff


# The steps of the loop each lattice input drives: the slice count
# (`spacetime._slice_classes`) walks (2·x0+1)² (x1, x2) columns, the shell
# enumeration (`hyperboloid`) at most (r+1)·(2r+1)² (p0, p1, p2).
LOOP_STEPS = {
    "slice count": lambda x0: (2 * x0 + 1) ** 2,
    "shell enumeration": lambda r: (r + 1) * (2 * r + 1) ** 2,
}


def _lattice_input(value, field, loop):
    """value as a nonnegative int if the `loop` it drives takes at most
    SPACE_BUDGET steps (x0 <= 2047, r <= 160 at 2^24); checked before
    the loop runs."""
    n = _typed(value, field, int, minimum=0)
    if LOOP_STEPS[loop](n) > SPACE_BUDGET:
        raise ScenarioError(field, f"{loop} exceeds {SPACE_BUDGET} steps")
    return n


FIELD_TERM_FIELDS = ("mode", "alpha")


def _parse_field(modes, terms, field_name):
    """(mode id, alpha) of each term of a field on the roster `modes`:
    every term well typed, then no id twice, then every id in the roster."""
    parsed = []
    for i, term in enumerate(terms):
        if isinstance(term, dict):
            _known_fields(term, FIELD_TERM_FIELDS, f"{field_name}[{i}].")
        if not isinstance(term, dict) or "mode" not in term:
            raise ScenarioError(f"{field_name}[{i}]", "expected {mode, alpha}")
        mode_id = _typed(term["mode"], f"{field_name}[{i}].mode", int)
        alpha = term.get("alpha", [1.0, 0.0])
        where = f"{field_name}[{i}].alpha"
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise ScenarioError(where, "expected [re, im]")
        re, im = (_typed(a, where, (int, float)) for a in alpha)
        parsed.append((mode_id, complex(re, im)))
    seen = set()
    for mode_id, _ in parsed:
        if mode_id in seen:
            raise ScenarioError(field_name, f"mode {mode_id} listed twice")
        seen.add(mode_id)
    for mode_id, _ in parsed:
        if not 0 <= mode_id < len(modes):
            raise ScenarioError(field_name, f"mode id {mode_id} not in roster")
    return parsed


STATE_FIELDS = ("modes",)


def _parse_state(space, raw, field_name):
    if isinstance(raw, dict):
        _known_fields(raw, STATE_FIELDS, f"{field_name}.")
    if not (isinstance(raw, dict) and isinstance(raw.get("modes"), list)):
        raise ScenarioError(field_name, "expected {modes: [[id, count], ...]}")
    row = np.zeros((1, len(space.modes)), dtype=np.int64)
    for i, pair in enumerate(raw["modes"]):
        where = f"{field_name}.modes[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError(where, "expected [id, count]")
        mode_id = _typed(pair[0], where, int)
        count = _typed(pair[1], where, int, minimum=1)
        try:
            fermionic = space.is_fermion(mode_id)
        except UnknownMode as exc:
            raise ScenarioError(where, str(exc)) from None
        if fermionic and count != 1:
            raise ScenarioError(field_name, "fermion count must be 1")
        if row[0, mode_id]:
            raise ScenarioError(field_name, f"mode {mode_id} listed twice")
        # a count above the cutoff is no ket's, and may not fit in int64
        row[0, mode_id] = min(count, space.cutoff_s + 1)
    ket = int(space.find_rows(row)[0])
    if ket < 0:
        raise ScenarioError(field_name, "state outside the basis")
    return ket


def _labels(space, kets):
    """Each ket's label: its occupied fermion modes, then its bosons, each
    in ascending id, a count above 1 as label^count; |0> for no particle."""
    fermion = [m.statistics is Statistics.FERMION for m in space.modes]
    order = np.argsort(np.logical_not(fermion), kind="stable")
    rows = space.occupations[kets][:, order]
    ket, column = np.nonzero(rows)  # ket-major, fermion columns first
    names = [space.modes[i].label for i in order.tolist()]
    words = [
        names[c] if n == 1 else f"{names[c]}^{n}"
        for c, n in zip(column.tolist(), rows[ket, column].tolist())
    ]
    ends = np.bincount(ket, minlength=len(rows)).cumsum().tolist()
    return [
        " ".join(words[start:end]) if end > start else "|0>"
        for start, end in zip([0] + ends, ends)
    ]


def emit_report(report, fmt):
    """Render a report as json, csv or an aligned text table."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    columns = report["columns"]
    rows = report["rows"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        return buf.getvalue()
    if fmt == "table":
        cells = [list(columns)]
        for row in rows:
            cells.append(
                [
                    _sig12(v) if isinstance(v, float) else str(v)
                    for v in row
                ]
            )
        widths = [max(len(r[c]) for r in cells) for c in range(len(columns))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in cells
        ]
        return "\n".join(lines) + "\n"
    raise ScenarioError("format", f"unknown format {fmt!r}")


def _run_dims(scenario, args):
    space = build_space(*_parse_sized_roster(scenario))
    report = {
        "kind": "dims",
        "columns": ["quantity", "value"],
        "rows": [["dimension", space.dimension]],
    }
    if _require(scenario, "dump_basis", bool, default=False):
        report["basis"] = [state.to_json() for state in space.basis]
        labels = _labels(space, np.arange(space.dimension))
        report["rows"] += [[f"basis[{i}]", label] for i, label in enumerate(labels)]
    return emit_report(report, args.fmt), 0


def _algebra_checks(space, rng):
    """{identity name: max violation} over the roster's algebra, in
    report order (`ladder.algebra_violations`), with each mode's alpha
    drawn from rng as two Gaussians."""
    modes = space.modes
    alpha = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in modes])
    ladders = [annihilator(space, m.id) for m in modes]
    ladders += [creator(space, m.id) for m in modes]
    return algebra_violations(space, ladders, alpha)


def _run_verify(scenario, args):
    tol = _typed(args.tol, "tol", float)
    space = build_space(*_parse_sized_roster(scenario))
    rows = [
        [name, float(violation), "pass" if violation <= tol else "FAIL"]
        for name, violation in _algebra_checks(space, random.Random(0)).items()
    ]
    report = {
        "kind": "verify",
        "tolerance": tol,
        "columns": ["identity", "max_violation", "status"],
        "rows": rows,
    }
    return emit_report(report, args.fmt), int(any(row[2] == "FAIL" for row in rows))


def _run_spectrum(scenario, args):
    if not _typed(args.tol, "tol", float) > 0:
        raise ScenarioError("tol", "must be > 0")
    modes, cutoff = _parse_sized_roster(scenario)
    terms = _parse_field(modes, _require(scenario, "field", list), "field")
    square = _require(scenario, "self_interaction", bool, default=False)
    terms2 = _require(scenario, "field2", list, default=None)
    if terms2 is not None:
        if square:
            raise ScenarioError("self_interaction", "cannot be combined with field2")
        terms2 = _parse_field(modes, terms2, "field2")
    try:
        groups = field_spectrum(modes, cutoff, terms, terms2, square, args.tol)
    except NotFinite as exc:
        raise ScenarioError("field", str(exc)) from None
    report = {
        "kind": "spectrum",
        "columns": ["lambda", "multiplicity"],
        "rows": [list(group) for group in groups],
    }
    return emit_report(report, args.fmt), 0


def _run_scatter(scenario, args):
    coupling = _typed(args.coupling, "coupling", float)
    mass1 = _require(scenario, "mass1", int, minimum=1)
    mass2 = _require(scenario, "mass2", int, minimum=1)
    r = _lattice_input(_require(scenario, "r"), "r", "shell enumeration")
    cutoff = _require(scenario, "cutoff_s", int, minimum=1)
    x0 = _lattice_input(_require(scenario, "x0"), "x0", "slice count")
    threshold = _require(scenario, "threshold", (int, float), 0, default=0.0)
    stats = _require(scenario, "statistics", default=["boson", "boson"])
    if not (isinstance(stats, list) and len(stats) == 2):
        raise ScenarioError("statistics", "expected a list of two entries")
    s1 = _parse_statistics(stats[0], "statistics[0]")
    s2 = _parse_statistics(stats[1], "statistics[1]")
    # each block is one mode per shell point: counted before any is built
    size1, size2 = (shell_size(m, r) for m in (mass1, mass2))
    _check_size([s1] * size1 + [s2] * size2, cutoff)
    try:
        roster = build_roster(mass1, mass2, r, s1, s2)
    except ToyQFTError as exc:
        raise ScenarioError("scatter", str(exc)) from exc
    space = build_space(roster, cutoff)
    n_in = _parse_state(space, _require(scenario, "in_state"), "in_state")
    try:
        column = scatter_column(space, x0, r, mass1, mass2, n_in, coupling)
    except CouplingTooLarge as exc:
        raise ScenarioError("coupling", f"|g|·‖H‖₁ = {_sig12(exc.scale)} exceeds 1e4") from None
    kets, probabilities, conserves = probability_table(
        space, column, n_in, threshold, enforce_conservation=args.enforce_conservation
    )
    (in_label,) = _labels(space, [n_in])
    report = {
        "kind": "scatter",
        "in_state": in_label,
        "coupling": coupling,
        "columns": ["out_state", "probability", "conserves_p"],
        "rows": [
            list(row)
            for row in zip(_labels(space, kets), probabilities.tolist(), conserves)
        ],
    }
    return emit_report(report, args.fmt), 0


def _run_lattice(scenario, args):
    if scenario is not None:
        mass = _require(scenario, "mass", int, minimum=0)
        r = _lattice_input(_require(scenario, "r"), "r", "shell enumeration")
        x0 = _require(scenario, "x0", int, minimum=0, default=None)
    else:
        if args.mass is None or args.max_energy is None:
            raise ScenarioError(
                "lattice", "--mass and --max-energy (or --scenario) required"
            )
        mass = _typed(args.mass, "mass", int, minimum=0)
        r = _lattice_input(args.max_energy, "max_energy", "shell enumeration")
        x0 = args.x0
    if x0 is not None:
        x0 = _lattice_input(x0, "x0", "slice count")
    points = hyperboloid(mass, r)
    report = {
        "kind": "lattice",
        "mass": mass,
        "max_energy": r,
        "hyperboloid": [list(p.as_tuple()) for p in points],
        "columns": ["p0", "p1", "p2", "p3"],
        "rows": [list(p.as_tuple()) for p in points],
    }
    if x0 is not None:
        report["space_volume"] = {"x0": x0, "volume": space_volume(x0)}
    return emit_report(report, args.fmt), 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toyqft",
        description="Toy quantum fields: dimensions, algebra checks, "
        "spectra and scattering probabilities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, scenario_required=True):
        p.set_defaults(run=run)
        p.add_argument(
            "--scenario", required=scenario_required, help="scenario JSON file"
        )
        p.add_argument(
            "--format",
            choices=["json", "csv", "table"],
            default="json",
            dest="fmt",
        )

    common(sub.add_parser("dims", help="space dimension report"), _run_dims)
    p = sub.add_parser("verify", help="operator algebra identity checks")
    common(p, _run_verify)
    p.add_argument("--tol", type=float, default=1e-12)
    p = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    common(p, _run_spectrum)
    p.add_argument("--tol", type=float, default=DEFAULT_GROUP_TOL)
    p = sub.add_parser("scatter", help="scattering probability table")
    common(p, _run_scatter)
    p.add_argument("--enforce-conservation", action="store_true")
    p.add_argument(
        "--coupling",
        type=float,
        default=1.0,
        help="dimensionless factor on H (extension; 1 is the bare model)",
    )
    p = sub.add_parser("lattice", help="mass hyperboloid dump")
    common(p, _run_lattice, scenario_required=False)
    p.add_argument("--mass", type=int)
    p.add_argument("--max-energy", type=int)
    p.add_argument("--x0", type=int)
    return parser


def _joined_float_values(argv):
    """argv with a "-..." (not "--...") token after a _FLOAT_OPTIONS
    flag joined on as that flag's value."""
    joined = []
    for token in argv:
        dash = token.startswith("-") and not token.startswith("--")
        if dash and joined and joined[-1] in _FLOAT_OPTIONS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_joined_float_values(argv))
    try:
        scenario = None
        if args.scenario is not None:
            scenario = _load_scenario(args.scenario)
            _known_fields(scenario, FIELDS[args.command])
        # runners render while their arrays are alive: text made after they
        # are freed lands in that heap space, and a caller that keeps every
        # output (benchmarks/run.py) then faults it back in on each op
        text, code = args.run(scenario, args)
        print(text, end="")
        return code
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ToyQFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
