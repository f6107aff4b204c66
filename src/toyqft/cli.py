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
import os
import random
import sys

import numpy as np

from . import __version__
from .errors import NotInBasis, ScenarioError, ToyQFTError, UnknownMode
from .fields import free_field, interaction_field, self_interaction
from .fock import (
    OccupationState,
    ParticleMode,
    Statistics,
    build_space,
    fermion_family,
)
from .ladder import _merge_terms, _row_join, annihilator, creator
from .scatter import build_roster, hamiltonian, probability_table
from .spacetime import hyperboloid, space_volume
from .spectral import apply_unitary_exp, eigh

SEED_ENV = "TOYQFT_SEED"
# Largest |g|·‖H‖₁ that scatter accepts, H the block on the in-state's
# (-1)^N sector that the series runs on.  exp(igH)|in> costs about |g|ρ
# products with H on the in-state's kets, ρ ≤ ‖H‖₁ the bound the series
# scales by, so |g|·‖H‖₁ is a conservative ceiling on that cost.
COUPLING_BOUND = 1e4
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
    """value if it is a `kind` no less than `minimum`; true/false is no number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(field, f"expected {getattr(kind, '__name__', 'number')}")
    if minimum is not None and not value >= minimum:  # NaN is not >= anything
        raise ScenarioError(field, f"must be >= {minimum}")
    return value


def _require(scenario, field, kind=None, minimum=None):
    if field not in scenario:
        raise ScenarioError(field, "required field missing")
    value = scenario[field]
    return value if kind is None else _typed(value, field, kind, minimum)


def _parse_statistics(text, field):
    try:
        return Statistics(text)
    except ValueError:
        raise ScenarioError(field, f"unknown statistics {text!r}") from None


def _parse_roster(scenario):
    entries = _require(scenario, "roster", list)
    modes = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"roster[{i}]", "expected object")
        stats = _parse_statistics(
            entry.get("statistics", "fermion"), f"roster[{i}].statistics"
        )
        momentum = entry.get("momentum")
        label = _typed(entry.get("label", f"mode{i}"), f"roster[{i}].label", str)
        try:
            modes.append(
                ParticleMode(
                    id=i,
                    label=label,
                    statistics=stats,
                    mass=int(entry.get("mass", 0)),
                    momentum=tuple(momentum) if momentum else None,
                )
            )
        except (ValueError, TypeError, OverflowError) as exc:  # int(Infinity)
            raise ScenarioError(f"roster[{i}]", str(exc)) from exc
    return modes


def _parse_space(scenario):
    modes = _parse_roster(scenario)
    cutoff = _require(scenario, "cutoff_s", int, minimum=1)
    try:
        return build_space(modes, cutoff)
    except ToyQFTError as exc:
        raise ScenarioError("roster", str(exc)) from exc


def _parse_field(space, terms, field_name):
    if not isinstance(terms, list):
        raise ScenarioError(field_name, "expected list of terms")
    parsed = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict) or "mode" not in term:
            raise ScenarioError(f"{field_name}[{i}]", "expected {mode, alpha}")
        mode_id = _typed(term["mode"], f"{field_name}[{i}].mode", int)
        alpha = term.get("alpha", [1.0, 0.0])
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise ScenarioError(f"{field_name}[{i}].alpha", "expected [re, im]")
        re, im = (_typed(a, f"{field_name}[{i}].alpha", (int, float)) for a in alpha)
        parsed.append((mode_id, complex(re, im)))
    try:
        return free_field(space, parsed)
    except ToyQFTError as exc:
        raise ScenarioError(field_name, str(exc)) from exc


def _parse_state(space, raw, field_name):
    if not (isinstance(raw, dict) and isinstance(raw.get("modes"), list)):
        raise ScenarioError(field_name, "expected {modes: [[id, count], ...]}")
    fermions = []
    bosons = []
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
        if fermionic:
            if count != 1:
                raise ScenarioError(field_name, "fermion count must be 1")
            fermions.append(mode_id)
        else:
            bosons.append((mode_id, count))
    try:
        state = OccupationState(tuple(sorted(fermions)), tuple(sorted(bosons)))
    except ValueError as exc:  # a mode listed twice
        raise ScenarioError(field_name, str(exc)) from None
    try:
        space.index_of(state)
    except NotInBasis:
        raise ScenarioError(field_name, "state outside the basis") from None
    return state


def _state_label(space, state):
    parts = [space.mode(f).label for f in state.fermions]
    parts += [
        space.mode(m).label + (f"^{c}" if c > 1 else "")
        for m, c in state.bosons
    ]
    return " ".join(parts) if parts else "|0>"


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


def _run_dims(scenario, fmt):
    space = _parse_space(scenario)
    report = {
        "kind": "dims",
        "columns": ["quantity", "value"],
        "rows": [["dimension", space.dimension]],
    }
    if scenario.get("dump_basis"):
        basis = space.basis
        report["basis"] = [state.to_json() for state in basis]
        for i, state in enumerate(basis):
            report["rows"].append([f"basis[{i}]", _state_label(space, state)])
    print(emit_report(report, fmt), end="")
    return 0


# verify's exchange-rule rows per statistics, in report order: exchange
# relations, number relation, then (bosons only) the boundary rule
_ROWS = {
    Statistics.FERMION: (
        "fermion exchange relations",
        "fermion number relation (off boundary)",
    ),
    Statistics.BOSON: (
        "boson commutators",
        "boson CCR (off boundary)",
        "boson boundary rule [a, a*] = -N",
    ),
}


def _algebra_checks(space, rng):
    """{identity name: max violation} over the roster's algebra, in
    report order.

    Every row comes from one batch over the ladders stacked as X_0 ...
    X_{2n-1} = a_0 ... a_{n-1}, a*_0 ... a*_{n-1} (`_verify_terms`): one
    merge sums every operator a row checks, and each position sums the
    same terms in the same order as the operator algebra in `ladder`, so
    every maximum is bit for bit the one-operator-at-a-time value.  The
    batch holds O(n^2 dim) terms at once.
    """
    modes = space.modes
    present = {m.statistics for m in modes}
    rows = ["creator = adjoint(annihilator)", "AC-operator Hermitian"]
    rows += [row for st, names in _ROWS.items() if st in present for row in names]
    n, dim = len(modes), space.dimension
    if not n:
        return dict.fromkeys(rows, 0.0)
    alpha = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in modes])
    ladders = [annihilator(space, m.id) for m in modes]
    ladders += [creator(space, m.id) for m in modes]

    # Bracketed pairs of same-statistics modes i, j: (a_i, a_j), (a_i, a*_j)
    # and, for bosons, (a*_i, a*_j).  Same-family fermions anticommute and
    # every other pair commutes.
    boson = np.array([m.statistics is Statistics.BOSON for m in modes])
    family = np.array([fermion_family(m) for m in modes])
    same = boson[:, None] == boson
    used = np.zeros((2 * n, 2 * n), dtype=bool)
    used[:n, :n] = used[:n, n:] = same
    used[n:, n:] = same & boson[:, None]
    stacked = np.arange(2 * n) % n  # the mode of each stacked ladder
    same_family = same & ~boson[:, None] & (family[:, None] == family)
    anti = same_family[stacked[:, None], stacked]
    area = dim * dim
    keys, data = _merge_terms(*_verify_terms(ladders, alpha, used, anti))

    # eta_i - adjoint(eta_i) from eta_i's merged entries, the order in
    # which `eta - eta.adjoint()` sums them
    lo, hi = keys.searchsorted((n * area, 2 * n * area))
    eta_keys, eta = keys[lo:hi], data[lo:hi]
    slot, rest = np.divmod(eta_keys, area)
    _, hermitian = _merge_terms(
        np.concatenate([eta_keys, slot * area + rest % dim * dim + rest // dim]),
        np.concatenate([eta, -eta.conj()]),
    )

    # [a_i, a*_i] - I below the cutoff and [a_i, a*_i] + N_i at it (two
    # disjoint column sets of one bracket), added to the merged bracket as
    # `mixed - eye` and `mixed + N` add them
    occ = space.occupations
    off = occ.sum(1) < space.cutoff_s
    slots = 2 * n + np.arange(n) * (2 * n + 1) + n  # the brackets (a_i, a*_i)
    diagonal = (slots * area)[:, None] + np.arange(dim) * (dim + 1)
    keys, data = _merge_terms(
        np.concatenate([keys, diagonal.ravel()]),
        np.concatenate([data, np.where(off, -1, occ.T).ravel()]),
    )

    # the row each slot counts toward in columns below the cutoff and in
    # columns at it, -1 for none (eta_i's slots: its row is checked above)
    at = {row: k for k, row in enumerate(rows)}
    exchange, number = (
        np.array([at[_ROWS[m.statistics][k]] for m in modes]) for k in (0, 1)
    )
    pair_off = np.full((2 * n, 2 * n), -1, dtype=np.int8)
    pair_off[:n, :n] = pair_off[n:, n:] = exchange[:, None]
    pair_off[:n, n:] = number[:, None]
    pair_cut = pair_off.copy()
    pair_cut[:n, n:] = -1
    bosons = np.flatnonzero(boson)
    pair_cut[bosons, n + bosons] = at.get(_ROWS[Statistics.BOSON][2], -1)
    slot_off, slot_cut = (
        np.concatenate([np.zeros(n, np.int8), np.full(n, -1, np.int8), pairs.ravel()])
        for pairs in (pair_off, pair_cut)
    )
    slot = keys // area
    row = np.where(off[keys % dim], slot_off[slot], slot_cut[slot])
    counted = row >= 0
    worst = np.zeros(len(rows))
    np.maximum.at(worst, row[counted], np.abs(data[counted]))
    worst[1] = np.abs(hermitian).max(initial=0.0)
    return dict(zip(rows, worst.tolist()))


def _verify_terms(ladders, alpha, used, anti):
    """(keys, data) of the terms of every operator verify checks, before
    merging: key (slot * dim + row) * dim + col.

    Slot i holds a*_i - adjoint(a_i), slot n + i holds eta_i = alpha_i a_i
    + conj(alpha_i) a*_i, and slot 2n + 2n p + q the bracket of X_p and
    X_q where used[p, q]: its X_p X_q terms, then its X_q X_p terms,
    negated unless anti[p, q].  A position's terms come in the order
    `operator_sum`, `commutator` and `anticommutator` give them.
    """
    n, dim = len(alpha), ladders[0].space.dimension
    area, width = dim * dim, 2 * n
    tag = np.arange(width).repeat([len(x.data) for x in ladders])
    r, c, v = (
        np.concatenate([getattr(x, f) for x in ladders]) for f in ("rows", "cols", "data")
    )
    mode = tag % n
    split = np.count_nonzero(tag < n)  # first creator entry

    # every product X_p X_q by one row join; in each (p, q, row, col) its
    # terms come in ascending inner index, as in `_product_terms`
    by_row = np.argsort(r, kind="stable")
    count, pick = _row_join(c, r[by_row], dim)
    pick = by_row[pick]
    position = (r * dim).repeat(count) + c[pick]
    product = v.repeat(count) * v[pick]
    left, right = tag.repeat(count), tag[pick]
    del pick  # the join's index arrays are O(n^2 dim): free them early
    pair, swapped = left * width + right, right * width + left
    del left, right
    forward, backward = used.ravel()[pair], used.ravel()[swapped]
    back = product[backward]
    return (
        np.concatenate([
            (mode * area + r * dim + c)[split:],
            (mode * area + c * dim + r)[:split],
            (n + mode) * area + r * dim + c,
            (width + pair[forward]) * area + position[forward],
            (width + swapped[backward]) * area + position[backward],
        ]),
        np.concatenate([
            v[split:],
            -v[:split].conj(),
            np.where(tag < n, alpha[mode], alpha[mode].conj()) * v,
            product[forward],
            np.where(anti.ravel()[swapped[backward]], back, -back),
        ]),
    )


def _run_verify(scenario, fmt, tol):
    if not abs(tol) < float("inf"):  # also true for NaN
        raise ScenarioError("tol", "must be a finite number")
    space = _parse_space(scenario)
    seed = int(os.environ.get(SEED_ENV, "0"))
    rng = random.Random(seed)
    rows = []
    failed = False
    for name, violation in _algebra_checks(space, rng).items():
        ok = violation <= tol
        failed = failed or not ok
        rows.append([name, float(violation), "pass" if ok else "FAIL"])
    report = {
        "kind": "verify",
        "tolerance": tol,
        "columns": ["identity", "max_violation", "status"],
        "rows": rows,
    }
    print(emit_report(report, fmt), end="")
    return 1 if failed else 0


def _run_spectrum(scenario, fmt, tol):
    if not 0 < tol < float("inf"):  # also false for NaN
        raise ScenarioError("tol", "must be a finite number > 0")
    space = _parse_space(scenario)
    phi = _parse_field(space, _require(scenario, "field"), "field")
    if "field2" in scenario:
        op = interaction_field(
            phi, _parse_field(space, scenario["field2"], "field2")
        )
    elif scenario.get("self_interaction"):
        op = self_interaction(phi)
    else:
        op = phi
    decomp = eigh(op, group_tol=tol)
    report = {
        "kind": "spectrum",
        "columns": ["lambda", "multiplicity"],
        "rows": [[g.value, g.multiplicity] for g in decomp.groups],
    }
    print(emit_report(report, fmt), end="")
    return 0


def _run_scatter(scenario, fmt, enforce, coupling):
    if not abs(coupling) < float("inf"):  # also true for NaN
        raise ScenarioError("coupling", "must be a finite number")
    mass1 = _require(scenario, "mass1", int, minimum=1)
    mass2 = _require(scenario, "mass2", int, minimum=1)
    r = _require(scenario, "r", int)
    cutoff = _require(scenario, "cutoff_s", int, minimum=1)
    x0 = _require(scenario, "x0", int, minimum=0)
    threshold = _typed(scenario.get("threshold", 0.0), "threshold", (int, float), 0)
    stats = scenario.get("statistics", ["boson", "boson"])
    if not (isinstance(stats, list) and len(stats) == 2):
        raise ScenarioError("statistics", "expected a list of two entries")
    s1 = _parse_statistics(stats[0], "statistics[0]")
    s2 = _parse_statistics(stats[1], "statistics[1]")
    try:
        roster = build_roster(mass1, mass2, r, s1, s2)
        space = build_space(roster, cutoff)
    except ToyQFTError as exc:
        raise ScenarioError("scatter", str(exc)) from exc
    in_state = _parse_state(space, _require(scenario, "in_state"), "in_state")
    # each field moves one count by 1, so H keeps the in-state's (-1)^N
    sector = np.flatnonzero(space.occupations.sum(1) % 2 == in_state.total % 2)
    try:
        h = hamiltonian(space, x0, r, mass1, mass2, sector)
    except ToyQFTError as exc:
        raise ScenarioError("scatter", str(exc)) from exc
    scale = abs(coupling) * h.one_norm()
    if scale > COUPLING_BOUND:
        raise ScenarioError("coupling", f"|g|·‖H‖₁ = {_sig12(scale)} exceeds 1e4")
    e_in = np.zeros(space.dimension, dtype=complex)
    e_in[space.index_of(in_state)] = 1
    rows = probability_table(
        space,
        apply_unitary_exp(h, e_in, coupling),
        in_state,
        threshold,
        enforce_conservation=enforce,
    )
    report = {
        "kind": "scatter",
        "in_state": _state_label(space, in_state),
        "coupling": coupling,
        "columns": ["out_state", "probability", "conserves_p"],
        "rows": [
            [
                _state_label(space, row.out_state),
                float(row.probability),
                row.conserves_momentum,
            ]
            for row in rows
        ],
    }
    print(emit_report(report, fmt), end="")
    return 0


def _run_lattice(scenario, fmt, args):
    if scenario is not None:
        mass = _require(scenario, "mass", int)
        r = _require(scenario, "r", int)
        x0 = scenario.get("x0")
    else:
        if args.mass is None or args.max_energy is None:
            raise ScenarioError(
                "lattice", "--mass and --max-energy (or --scenario) required"
            )
        mass, r, x0 = args.mass, args.max_energy, args.x0
    if x0 is not None:
        x0 = _typed(x0, "x0", int, minimum=0)
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
    print(emit_report(report, fmt), end="")
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toyqft",
        description="Toy quantum fields: dimensions, algebra checks, "
        "spectra and scattering probabilities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument(
            "--scenario", required=scenario_required, help="scenario JSON file"
        )
        p.add_argument(
            "--format",
            choices=["json", "csv", "table"],
            default="json",
            dest="fmt",
        )

    common(sub.add_parser("dims", help="space dimension report"))
    p = sub.add_parser("verify", help="operator algebra identity checks")
    common(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p = sub.add_parser("scatter", help="scattering probability table")
    common(p)
    p.add_argument("--enforce-conservation", action="store_true")
    p.add_argument(
        "--coupling",
        type=float,
        default=1.0,
        help="dimensionless factor on H (extension; 1 is the bare model)",
    )
    p = sub.add_parser("lattice", help="mass hyperboloid dump")
    common(p, scenario_required=False)
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
        if args.command == "lattice":
            scenario = (
                _load_scenario(args.scenario) if args.scenario else None
            )
            return _run_lattice(scenario, args.fmt, args)
        scenario = _load_scenario(args.scenario)
        if args.command == "dims":
            return _run_dims(scenario, args.fmt)
        if args.command == "verify":
            return _run_verify(scenario, args.fmt, args.tol)
        if args.command == "spectrum":
            return _run_spectrum(scenario, args.fmt, args.tol)
        if args.command == "scatter":
            return _run_scatter(
                scenario, args.fmt, args.enforce_conservation, args.coupling
            )
        raise ScenarioError("command", f"unknown command {args.command!r}")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ToyQFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
