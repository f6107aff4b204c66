import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import time
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toyqft import (
    FockSpace,
    OccupationState,
    ParticleMode,
    Statistics,
    build_roster,
    build_space,
    cli,
    eigh,
    free_field,
    hamiltonian,
    interaction_field,
    scattering_operator,
    self_interaction,
    spacetime,
)
import toyqft.fields
import toyqft.scatter
from toyqft.cli import emit_report, main
from toyqft.ladder import OperatorMatrix

from conftest import ket
from test_catalog import VARIANTS, workloads

SRC = str(Path(cli.__file__).resolve().parents[1])


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FERMION_ROSTER_K3 = {
    "roster": [{"label": f"p{i}", "statistics": "fermion"} for i in range(3)],
    "cutoff_s": 3,
}


def test_dims_j23(tmp_path, capsys):
    scenario = {
        "roster": [
            {"label": "q1", "statistics": "boson"},
            {"label": "q2", "statistics": "boson"},
        ],
        "cutoff_s": 3,
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["dims", "--scenario", path])
    assert code == 0
    assert json.loads(out)["rows"] == [["dimension", 10]]


def test_dims_table_format(tmp_path, capsys):
    path = write_scenario(tmp_path, FERMION_ROSTER_K3)
    code, out, _ = run(capsys, ["dims", "--scenario", path, "--format", "table"])
    assert code == 0
    assert "dimension" in out and "8" in out


def test_dims_basis_dump(tmp_path, capsys):
    scenario = dict(FERMION_ROSTER_K3, dump_basis=True)
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["dims", "--scenario", path])
    report = json.loads(out)
    assert len(report["basis"]) == 8
    assert report["basis"][0] == {"fermions": [], "bosons": []}


def test_verify_k3_passes(tmp_path, capsys):
    path = write_scenario(tmp_path, FERMION_ROSTER_K3)
    code, out, _ = run(capsys, ["verify", "--scenario", path])
    assert code == 0
    report = json.loads(out)
    assert all(row[2] == "pass" for row in report["rows"])
    assert max(row[1] for row in report["rows"]) <= 1e-12


def test_verify_mixed_space_passes(tmp_path, capsys):
    scenario = {
        "roster": [
            {"label": "p1", "statistics": "fermion"},
            {"label": "p2", "statistics": "fermion"},
            {"label": "q1", "statistics": "boson"},
            {"label": "q2", "statistics": "boson"},
        ],
        "cutoff_s": 2,
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["verify", "--scenario", path])
    assert code == 0
    names = [row[0] for row in json.loads(out)["rows"]]
    assert "boson boundary rule [a, a*] = -N" in names


def test_verify_impossible_tolerance_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, FERMION_ROSTER_K3)
    code, out, _ = run(capsys, ["verify", "--scenario", path, "--tol", "-1"])
    assert code == 1
    assert any(row[2] == "FAIL" for row in json.loads(out)["rows"])


def test_spectrum_j112_interaction(tmp_path, capsys):
    scenario = {
        "roster": [
            {"label": "p1", "statistics": "boson"},
            {"label": "q1", "statistics": "boson"},
        ],
        "cutoff_s": 2,
        "field": [{"mode": 0, "alpha": [1.0, 0.0]}],
        "field2": [{"mode": 1, "alpha": [1.0, 0.0]}],
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["spectrum", "--scenario", path])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [m for _, m in rows] == [1, 1, 2, 1, 1]
    values = [v for v, _ in rows]
    assert np.allclose(
        values, [-np.sqrt(2), -1.0, 0.0, 1.0, np.sqrt(2)], atol=1e-9
    )


def test_spectrum_self_interaction(tmp_path, capsys):
    scenario = {
        "roster": [
            {"label": "p1", "statistics": "fermion"},
            {"label": "p2", "statistics": "fermion"},
        ],
        "cutoff_s": 2,
        "field": [
            {"mode": 0, "alpha": [0.6, 0.8]},
            {"mode": 1, "alpha": [0.0, 0.5]},
        ],
        "self_interaction": True,
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["spectrum", "--scenario", path])
    rows = json.loads(out)["rows"]
    assert rows == [[pytest.approx(1.25), 4]]


def test_spectrum_table_12_digits(tmp_path, capsys):
    scenario = {
        "roster": [
            {"label": "p1", "statistics": "fermion"},
            {"label": "p2", "statistics": "fermion"},
        ],
        "cutoff_s": 2,
        "field": [
            {"mode": 0, "alpha": [1.0, 0.0]},
            {"mode": 1, "alpha": [1.0, 0.0]},
        ],
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["spectrum", "--scenario", path, "--format", "table"])
    assert code == 0
    assert "-1.41421356237" in out


# spectrum from the named modes alone, against the dense reference: the
# whole space's operator through `eigh`
ALPHAS = [[1.0, 0.0], [0.5, -0.25], [-0.8, 0.6], [0.3, 1.2]]


@st.composite
def spectrum_cases(draw):
    """(scenario, modes): up to four fermions of one mass, up to one of
    another mass and up to three bosons in any order, cutoff at most 4,
    and a field (with field2 or self_interaction) naming up to three of
    them, so named fermions sit among spectator fermions of their kind."""
    kinds = ["fermion-1"] * draw(st.integers(0, 4)) + ["fermion-2"] * draw(st.integers(0, 1))
    kinds += ["boson-0"] * draw(st.integers(0 if kinds else 1, 3))
    kinds = draw(st.permutations(kinds))
    roster = [{"statistics": k.split("-")[0], "mass": int(k[-1])} for k in kinds]

    def field():
        ids = draw(st.lists(st.integers(0, len(kinds) - 1), unique=True, max_size=3))
        return [{"mode": i, "alpha": draw(st.sampled_from(ALPHAS))} for i in ids]

    scenario = {"roster": roster, "cutoff_s": draw(st.integers(1, 4)), "field": field()}
    form = draw(st.sampled_from(["field", "field2", "self"]))
    if form == "field2":
        scenario["field2"] = field()
    elif form == "self":
        scenario["self_interaction"] = True
    modes = [
        ParticleMode(i, f"mode{i}", Statistics(e["statistics"]), e["mass"])
        for i, e in enumerate(roster)
    ]
    return scenario, modes


def dense_spectrum(scenario, modes):
    """(value, multiplicity) pairs of the scenario's operator built on the
    whole space and decomposed by `eigh`."""
    space = build_space(modes, scenario["cutoff_s"])

    def field(name):
        return free_field(space, [(t["mode"], complex(*t["alpha"])) for t in scenario[name]])

    op = field("field")
    if "field2" in scenario:
        op = interaction_field(op, field("field2"))
    elif scenario.get("self_interaction"):
        op = self_interaction(op)
    return eigh(op).pairs()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(spectrum_cases())
def test_spectrum_matches_the_dense_reference(case):
    scenario, modes = case
    space = {"roster": scenario["roster"], "cutoff_s": scenario["cutoff_s"]}
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for command, fields in (("spectrum", scenario), ("dims", space)):
            path = Path(tmp) / f"{command}.json"
            path.write_text(json.dumps(fields))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, "--scenario", str(path)]) == 0
            reports.append(json.loads(out.getvalue())["rows"])
    (rows, [[_, dimension]]), want = reports, dense_spectrum(scenario, modes)
    assert [m for _, m in rows] == [m for _, m in want]
    assert sum(m for _, m in rows) == dimension
    for (value, _), (reference, _) in zip(rows, want):
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


def test_spectrum_builds_only_the_named_modes(tmp_path, capsys, monkeypatch):
    """The only space a spectrum op builds is the named modes', renumbered
    in ascending id with statistics and mass kept."""
    roster = [
        {"statistics": "fermion", "mass": 1}, {"statistics": "boson"},
        {"statistics": "fermion", "mass": 1}, {"statistics": "boson"},
        {"statistics": "fermion", "mass": 2},
    ]
    scenario = {
        "roster": roster, "cutoff_s": 3,
        "field": [{"mode": 3}, {"mode": 0}], "field2": [{"mode": 4}, {"mode": 3}],
    }
    built = []

    def recording(modes, cutoff):
        built.append((tuple(modes), cutoff))
        return build_space(modes, cutoff)

    monkeypatch.setattr(toyqft.fields, "build_space", recording)
    path = write_scenario(tmp_path, scenario)
    assert run(capsys, ["spectrum", "--scenario", path])[0] == 0
    modes = [
        ParticleMode(i, f"mode{i}", Statistics(e["statistics"]), e.get("mass", 0))
        for i, e in enumerate(roster)
    ]
    named = tuple(replace(modes[i], id=k) for k, i in enumerate([0, 3, 4]))
    assert built == [(named, 3)]


def test_spectrum_of_large_alphas_scales(tmp_path, capsys):
    """½{phi, psi} is Hermitian by construction, so alphas of 1e9 are not
    refused for rounding asymmetry: the spectrum scales by 1e18."""
    roster = [{"statistics": "boson"}, {"statistics": "boson"}, {"statistics": "fermion"}]
    scenario = {
        "roster": roster, "cutoff_s": 3,
        "field": [{"mode": 0, "alpha": [1.0, 0.3]}, {"mode": 2, "alpha": [2.0, 0.0]}],
        "field2": [{"mode": 1, "alpha": [0.3, 1.0]}, {"mode": 2, "alpha": [0.0, 1.0]}],
    }
    base = run(capsys, ["spectrum", "--scenario", write_scenario(tmp_path, scenario)])
    for name in ("field", "field2"):
        scenario[name] = [dict(t, alpha=[1e9 * a for a in t["alpha"]]) for t in scenario[name]]
    large = run(capsys, ["spectrum", "--scenario", write_scenario(tmp_path, scenario)])
    assert base[0] == large[0] == 0
    rows, want = json.loads(large[1])["rows"], json.loads(base[1])["rows"]
    assert [m for _, m in rows] == [m for _, m in want]
    assert np.allclose([v for v, _ in rows], [1e18 * v for v, _ in want], rtol=1e-12, atol=1e6)


@pytest.mark.parametrize("command", ["dims", "spectrum"])
def test_two_fermions_at_a_huge_cutoff(tmp_path, capsys, command):
    """Two fermions hold at most two particles, so cutoff_s 10**30 is the
    cutoff-2 space and runs at once."""
    scenario = {"roster": [{"statistics": "fermion"}] * 2}
    if command == "spectrum":
        scenario["field"] = [{"mode": 1, "alpha": [0.5, 0]}]
    path = write_scenario(tmp_path, dict(scenario, cutoff_s=10**30))
    start = time.perf_counter()
    huge = run(capsys, [command, "--scenario", path])
    assert time.perf_counter() - start < 1.0
    path = write_scenario(tmp_path, dict(scenario, cutoff_s=2))
    assert huge == run(capsys, [command, "--scenario", path])
    assert huge[0] == 0


def test_scatter_probability_table(tmp_path, capsys):
    scenario = {
        "mass1": 1,
        "mass2": 1,
        "r": 1,
        "cutoff_s": 2,
        "x0": 0,
        "in_state": {"modes": [[0, 1], [1, 1]]},
        "threshold": 1e-12,
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["scatter", "--scenario", path])
    assert code == 0
    report = json.loads(out)
    total = sum(row[1] for row in report["rows"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(row[2] in (True, False) for row in report["rows"])


def reference_label(space, state):
    """One ket's label from its OccupationState: fermion modes, then
    bosons, each in ascending id, a count above 1 as ^count; |0> for
    no particle."""
    parts = [space.mode(f).label for f in state.fermions]
    parts += [space.mode(m).label + (f"^{c}" if c > 1 else "") for m, c in state.bosons]
    return " ".join(parts) if parts else "|0>"


LABELED_MODES = st.lists(
    st.tuples(st.sampled_from(list(Statistics)), st.sampled_from(["", "a", "a", "b c", "d^2"])),
    max_size=5,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(roster=LABELED_MODES, s=st.integers(1, 4))
def test_labels_match_the_per_state_rule(roster, s):
    """_labels gives every ket the label of the per-state rule, for all
    kets, for a subset in reverse order and for a list of one ket."""
    space = build_space(
        [ParticleMode(i, label, stats) for i, (stats, label) in enumerate(roster)], s
    )
    expected = [reference_label(space, state) for state in space.basis]
    assert cli._labels(space, np.arange(space.dimension)) == expected
    subset = np.arange(space.dimension)[::-2]
    assert cli._labels(space, subset) == [expected[n] for n in subset]
    assert cli._labels(space, [space.dimension - 1]) == expected[-1:]
    assert cli._labels(space, np.arange(0)) == []


def test_labels_order_counts_empty_and_repeated_labels():
    fermion, boson = Statistics.FERMION, Statistics.BOSON
    space = build_space(
        [
            ParticleMode(0, "b", boson),
            ParticleMode(1, "f", fermion),
            ParticleMode(2, "", boson),
            ParticleMode(3, "f", fermion),
        ],
        3,
    )

    def label(*raw):
        (text,) = cli._labels(space, [ket(space, *raw)])
        return text

    assert label() == "|0>"
    assert label(0, 1) == "f b"  # a fermion before a boson of lower id
    assert label(0, 0, 3) == "f b^2"
    assert label(0, 0, 0) == "b^3"
    assert label(2) == ""  # a particle in a mode labelled "" is no vacuum
    assert label(2, 2) == "^2"
    assert label(0, 2) == "b "
    assert label(1, 3) == "f f"  # repeated labels are kept
    assert cli._labels(build_space([], 1), [0]) == ["|0>"]


def test_scatter_builds_no_state_per_row(tmp_path, capsys):
    """A scatter op at r=2, s=3 prints its table without FockSpace.states_at
    and makes no OccupationState: the in-state is parsed as a count row."""
    scenario = dict(SCATTER_R1, r=2, cutoff_s=3, in_state={"modes": [[0, 1], [9, 1]]})
    path = write_scenario(tmp_path, scenario)
    calls, made = [], []
    real_states_at, real_post_init = FockSpace.states_at, OccupationState.__post_init__

    def states_at(space, ordinals):
        calls.append(len(ordinals))
        return real_states_at(space, ordinals)

    def post_init(state):
        made.append(state)
        real_post_init(state)

    with mock.patch.object(FockSpace, "states_at", states_at), \
            mock.patch.object(OccupationState, "__post_init__", post_init):
        code, out, _ = run(capsys, ["scatter", "--scenario", path])
    assert code == 0 and len(json.loads(out)["rows"]) > 100
    assert calls == []
    assert made == []


def test_scatter_enforce_conservation(tmp_path, capsys):
    scenario = {
        "mass1": 1,
        "mass2": 1,
        "r": 2,
        "cutoff_s": 2,
        "x0": 0,
        "in_state": {"modes": [[0, 1], [9, 1]]},
        "threshold": 1e-12,
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(
        capsys, ["scatter", "--scenario", path, "--enforce-conservation"]
    )
    assert code == 0
    assert all(row[2] is True for row in json.loads(out)["rows"])


def test_scatter_csv_header(tmp_path, capsys):
    scenario = {
        "mass1": 1,
        "mass2": 1,
        "r": 1,
        "cutoff_s": 2,
        "x0": 0,
        "in_state": {"modes": [[0, 1], [1, 1]]},
    }
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["scatter", "--scenario", path, "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "out_state,probability,conserves_p"


def test_lattice_flags(capsys):
    code, out, _ = run(
        capsys, ["lattice", "--mass", "1", "--max-energy", "2", "--x0", "1"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["hyperboloid"]) == 9
    assert report["space_volume"] == {"x0": 1, "volume": 7}
    # with no x0, as with a scenario that has none, no volume is counted
    code, out, _ = run(capsys, ["lattice", "--mass", "1", "--max-energy", "2"])
    assert code == 0 and "space_volume" not in json.loads(out)


def x0_argvs(tmp_path, x0):
    """The three ways to ask for slice time x0: scatter, lattice
    --scenario and lattice --x0."""
    return [
        ["scatter", "--scenario", write_scenario(tmp_path, dict(SCATTER_R1, x0=x0), "s.json")],
        ["lattice", "--scenario", write_scenario(tmp_path, {"mass": 1, "r": 2, "x0": x0})],
        ["lattice", "--mass", "1", "--max-energy", "2", "--x0", str(x0)],
    ]


def test_lattice_x0_over_the_budget_builds_no_slice(tmp_path, capsys, monkeypatch):
    """x0 = 2047 is the last time whose slice count walks at most 2^24
    (x1, x2) columns (4095² = 16,769,025 <= 2^24 < 4097²): it passes the
    reader, and x0 = 2048 exits 2 before the slice is counted, in each of
    `x0_argvs`.  The slice is replaced by one point, so nothing is
    counted at either time."""
    counted = []

    def one_point(x0):
        counted.append(x0)
        if x0 > 2047:
            raise AssertionError(f"slice counted at x0={x0}")
        return np.eye(1, 64, dtype=np.int64)[0]

    monkeypatch.setattr(spacetime, "_slice_classes", one_point)
    monkeypatch.setattr(toyqft.scatter, "_slice_classes", one_point)
    for argv in x0_argvs(tmp_path, 2047):
        assert run(capsys, argv)[0] == 0
    assert counted == [2047] * 3  # one slice per run
    for argv in x0_argvs(tmp_path, 2048):
        assert run(capsys, argv) == (
            2, "", f"scenario error: x0: slice count exceeds {cli.SPACE_BUDGET} steps\n"
        )
    assert counted == [2047] * 3


def test_lattice_at_the_largest_x0():
    """`lattice --x0 2047`, the largest slice the CLI counts, prints its
    35,928,709,463 points (about 1 s)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lattice", "--mass", "1", "--max-energy", "2", "--x0", "2047"])
    assert code == 0
    assert json.loads(out.getvalue())["space_volume"] == {"x0": 2047, "volume": 35_928_709_463}


SCATTER_R1 = {
    "mass1": 1,
    "mass2": 1,
    "r": 1,
    "cutoff_s": 2,
    "x0": 0,
    "in_state": {"modes": [[0, 1], [1, 1]]},
}


@pytest.mark.parametrize("command", ["scatter", "lattice", "lattice-flags"])
def test_negative_x0_exit_2(tmp_path, capsys, command):
    if command == "scatter":
        argv = ["scatter", "--scenario", write_scenario(
            tmp_path, dict(SCATTER_R1, x0=-1))]
    elif command == "lattice":
        argv = ["lattice", "--scenario", write_scenario(
            tmp_path, {"mass": 1, "r": 2, "x0": -1})]
    else:
        argv = ["lattice", "--mass", "1", "--max-energy", "2", "--x0", "-1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: x0:")


@pytest.mark.parametrize("command", ["lattice", "lattice-flags"])
def test_negative_mass_exit_2(tmp_path, capsys, command):
    if command == "lattice":
        argv = ["lattice", "--scenario", write_scenario(tmp_path, {"mass": -1, "r": 2})]
    else:
        argv = ["lattice", "--mass", "-1", "--max-energy", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: mass:")


@pytest.mark.parametrize("command", ["lattice", "lattice-flags"])
def test_negative_max_energy_exit_2(tmp_path, capsys, command):
    if command == "lattice":
        argv = ["lattice", "--scenario", write_scenario(tmp_path, {"mass": 1, "r": -5})]
        field = "r"
    else:
        argv = ["lattice", "--mass", "1", "--max-energy", "-5"]
        field = "max_energy"
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"scenario error: {field}: must be >= 0\n")


# A space of C(60, 20) kets (dims) and one of C(62, 20) (scatter, r=3)
OVERSIZED = {
    "dims": {"roster": [{"statistics": "boson"}] * 40, "cutoff_s": 20},
    "scatter": dict(SCATTER_R1, r=3, cutoff_s=20),
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_oversized_space_exits_2_before_it_is_built(tmp_path, capsys, monkeypatch, command):
    def unreachable(*args):
        raise AssertionError("space built above the size budget")

    monkeypatch.setattr(cli, "build_space", unreachable)
    path = write_scenario(tmp_path, OVERSIZED[command])
    code, out, err = run(capsys, [command, "--scenario", path])
    assert (code, out) == (2, "")
    assert err == f"scenario error: cutoff_s: space exceeds {cli.SPACE_BUDGET} kets x modes\n"


def test_scatter_budget_runs_before_the_roster(tmp_path, capsys, monkeypatch):
    """At r=60, cutoff_s 1 the two shells hold 12,722 modes, 1.6e8 kets x
    modes: the budget refuses it from the shell sizes alone, and an empty
    shell still exits 2 on the roster's own error."""
    def unreachable(*args):
        raise AssertionError("roster built above the size budget")

    monkeypatch.setattr(cli, "build_roster", unreachable)
    path = write_scenario(tmp_path, dict(SCATTER_R1, r=60, cutoff_s=1))
    code, out, err = run(capsys, ["scatter", "--scenario", path])
    assert (code, out) == (2, "")
    assert err == f"scenario error: cutoff_s: space exceeds {cli.SPACE_BUDGET} kets x modes\n"
    monkeypatch.undo()
    path = write_scenario(tmp_path, dict(SCATTER_R1, mass1=3, r=2))
    code, out, err = run(capsys, ["scatter", "--scenario", path])
    assert (code, out, err) == (2, "", "scenario error: scatter: mass-3 hyperboloid empty for r=2\n")


def test_scatter_budget_reads_the_cached_shells(tmp_path, capsys, monkeypatch):
    """The size budget counts the cached shells that the roster and the
    fields read, with no shell enumeration of its own."""
    def unreachable(*args):
        raise AssertionError("shell enumerated outside the cache")

    monkeypatch.setattr(cli, "hyperboloid", unreachable)
    path = write_scenario(tmp_path, SCATTER_R1)
    assert run(capsys, ["scatter", "--scenario", path])[0] == 0


@pytest.mark.parametrize("fermions, bosons, s", [(0, 3, 4), (3, 0, 5), (2, 3, 3), (4, 2, 2)])
def test_size_budget_counts_kets_exactly(tmp_path, capsys, monkeypatch, fermions, bosons, s):
    """A space of exactly SPACE_BUDGET kets x modes is built; one entry
    less of budget and it exits 2."""
    roster = [{"statistics": "fermion"}] * fermions + [{"statistics": "boson"}] * bosons
    path = write_scenario(tmp_path, {"roster": roster, "cutoff_s": s})
    modes = [ParticleMode(i, "", Statistics(e["statistics"])) for i, e in enumerate(roster)]
    monkeypatch.setattr(cli, "SPACE_BUDGET", build_space(modes, s).dimension * len(modes))
    assert run(capsys, ["dims", "--scenario", path])[0] == 0
    monkeypatch.setattr(cli, "SPACE_BUDGET", cli.SPACE_BUDGET - 1)
    code, out, err = run(capsys, ["dims", "--scenario", path])
    assert (code, out) == (2, "") and err.startswith("scenario error: cutoff_s: ")


def test_dims_builds_one_boson_at_a_cutoff_far_inside_the_budget(tmp_path, capsys):
    """100,001 kets x 1 mode: the build's memory is bounded by the
    budget's count table, not by the kets' particle totals."""
    path = write_scenario(tmp_path, {"roster": [{"statistics": "boson"}], "cutoff_s": 100000})
    code, out, err = run(capsys, ["dims", "--scenario", path])
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == [["dimension", 100001]]


@pytest.mark.parametrize("momentum", [None, [1, 0, 0, 0], [2, 1, -1, -1]])
def test_roster_momentum_null_or_four_ints(tmp_path, capsys, momentum):
    """A null momentum leaves the mode unlabeled; four ints on the mode's
    mass shell label it."""
    mass = 1 if momentum is None else momentum[0] ** 2 - sum(p * p for p in momentum[1:])
    roster = [{"statistics": "boson", "mass": mass, "momentum": momentum}]
    path = write_scenario(tmp_path, {"roster": roster, "cutoff_s": 1})
    assert run(capsys, ["dims", "--scenario", path]) == (
        0, '{"columns":["quantity","value"],"kind":"dims","rows":[["dimension",2]]}\n', ""
    )


@pytest.mark.parametrize(
    "alpha, extra, message",
    [
        ([float("nan"), 0], {}, "field[0].alpha: must be a finite number"),
        ([float("inf"), 0], {}, "field[0].alpha: must be a finite number"),
        ([float("inf"), 0], {"self_interaction": True}, "field[0].alpha: must be a finite number"),
        ([1e308, 1e308], {}, None),
        ([1e200, 0], {"self_interaction": True}, "field: spectrum is not finite"),
    ],
    ids=["nan", "inf", "inf-self", "overflow", "overflow-self"],
)
def test_spectrum_never_prints_non_finite_values(tmp_path, capsys, alpha, extra, message):
    """Non-finite alphas, and finite ones whose operator or spectrum
    overflows, exit 2 with one scenario error line and no warning.  A
    finite spectrum prints even where its copies sum past the largest
    float: ±|alpha| = ±1.414e308, four copies each."""
    scenario = dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": alpha}, {"mode": 1}], **extra)
    path = write_scenario(tmp_path, scenario)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["spectrum", "--scenario", path])
    assert caught == []
    if message is not None:
        assert (code, out, err) == (2, "", f"scenario error: {message}\n")
        return
    assert (code, err) == (0, "")
    (low, m_low), (high, m_high) = json.loads(out)["rows"]
    assert (m_low, m_high) == (4, 4)
    assert -low == high == pytest.approx(abs(complex(*alpha)), rel=1e-15)


SPECTRUM_K3 = dict(FERMION_ROSTER_K3, field=[{"mode": 0}, {"mode": 1, "alpha": [0.0, 1.0]}])


MALFORMED = {
    "state-id-str": ("scatter", dict(SCATTER_R1, in_state={"modes": [["a", 1]]})),
    "state-pair-short": ("scatter", dict(SCATTER_R1, in_state={"modes": [[0]]})),
    "state-id-twice": ("scatter", dict(SCATTER_R1, in_state={"modes": [[0, 1], [0, 1]]})),
    "state-count-0": ("scatter", dict(SCATTER_R1, in_state={"modes": [[0, 0]]})),
    "state-modes-int": ("scatter", dict(SCATTER_R1, in_state={"modes": 0})),
    "state-id-unknown": ("scatter", dict(SCATTER_R1, in_state={"modes": [[99, 1]]})),
    "state-id-negative": ("scatter", dict(SCATTER_R1, in_state={"modes": [[-1, 1]]})),
    "x0-bool": ("scatter", dict(SCATTER_R1, x0=True)),
    "cutoff-0": ("scatter", dict(SCATTER_R1, cutoff_s=0)),
    "mass-negative": ("scatter", dict(SCATTER_R1, mass1=-1)),
    "threshold-str": ("scatter", dict(SCATTER_R1, threshold="high")),
    "threshold-negative": ("scatter", dict(SCATTER_R1, threshold=-1.0)),
    "threshold-nan": ("scatter", dict(SCATTER_R1, threshold=float("nan"))),
    "threshold-huge": ("scatter", dict(SCATTER_R1, threshold=10**400)),
    "threshold-infinity": ("scatter", dict(SCATTER_R1, threshold=float("inf"))),
    "r-huge": ("scatter", dict(SCATTER_R1, r=2**70)),
    "field-id-str": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": "a"}])),
    "field-id-float": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 1.5}])),
    "field-alpha-str": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": ["1", 0]}])),
    "cutoff-bool": ("dims", dict(FERMION_ROSTER_K3, cutoff_s=True)),
    "scenario-number": ("dims", 2),
    "scenario-null": ("verify", None),
    "scenario-true": ("spectrum", True),
    "scenario-float": ("scatter", 0.5),
    "label-int": ("dims", {"roster": [{"label": 7}], "cutoff_s": 1, "dump_basis": True}),
    "label-null": ("dims", {"roster": [{"label": None}], "cutoff_s": 1, "dump_basis": True}),
    "label-list": ("dims", {"roster": [{"label": ["p"]}], "cutoff_s": 1, "dump_basis": True}),
    "mass-infinity": ("dims", {"roster": [{"mass": float("inf")}], "cutoff_s": 1}),
    "roster-mass-float": ("dims", {"roster": [{"mass": 1.7}], "cutoff_s": 1}),
    "roster-mass-bool": ("dims", {"roster": [{"mass": True}], "cutoff_s": 1}),
    "roster-mass-str": ("dims", {"roster": [{"mass": "2"}], "cutoff_s": 1}),
    "roster-mass-negative": ("dims", {"roster": [{"mass": -1}], "cutoff_s": 1}),
    "momentum-float": ("dims", {"roster": [{"momentum": [1.0, 1.0, 0, 0]}], "cutoff_s": 1}),
    "momentum-str": ("dims", {"roster": [{"momentum": "abc"}], "cutoff_s": 1}),
    "momentum-short": ("dims", {"roster": [{"momentum": [1, 0]}], "cutoff_s": 1}),
    "momentum-nested": ("dims", {"roster": [{"momentum": [[1], 1, 0, 0]}], "cutoff_s": 1}),
    "momentum-empty": ("dims", {"roster": [{"momentum": []}], "cutoff_s": 1}),
    "field-alpha-nan": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": [float("nan"), 0]}])),
    "field-alpha-inf": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": [0, float("inf")]}])),
    "field-alpha-huge-int": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": [10**400, 0]}])),
    "field-alpha-overflow": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": [1e308, 1e308]}, {"mode": 1, "alpha": [1e308, 1e308]}])),
    "lattice-r-negative": ("lattice", {"mass": 1, "r": -5}),
    "roster-off-shell": ("dims", {"roster": [{"mass": 1, "momentum": [1, 1, 0, 0]}], "cutoff_s": 1}),
    "field-dict": ("spectrum", dict(FERMION_ROSTER_K3, field={"mode": 0})),
    "field-alpha-short": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": [1.0]}])),
    "field-id-unknown": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0}, {"mode": 3}])),
    "field-id-negative": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": -1}])),
    "field-id-twice": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 1}, {"mode": 1}])),
    # the repeated id is reported before the unknown one ahead of it
    "field-id-unknown-and-twice": (
        "spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 9}, {"mode": 0}, {"mode": 0}])
    ),
    "field2-id-unknown": ("spectrum", dict(SPECTRUM_K3, field2=[{"mode": 2}, {"mode": 7}])),
    "state-fermion-count-2": (
        "scatter", dict(SCATTER_R1, statistics=["fermion", "boson"], in_state={"modes": [[0, 2]]})
    ),
    "state-above-cutoff": ("scatter", dict(SCATTER_R1, in_state={"modes": [[0, 3]]})),
    "state-count-huge": ("scatter", dict(SCATTER_R1, in_state={"modes": [[0, 10**24]]})),
    "statistics-one": ("scatter", dict(SCATTER_R1, statistics=["boson"])),
    "dump-basis-str": ("dims", dict(FERMION_ROSTER_K3, dump_basis="no")),
    "self-interaction-str": ("spectrum", dict(SPECTRUM_K3, self_interaction="false")),
    "spectrum-field2-and-self": (
        "spectrum", dict(SPECTRUM_K3, field2=[{"mode": 2}], self_interaction=True)
    ),
    "field2-null": ("spectrum", dict(SPECTRUM_K3, field2=None)),
    "x0-huge": ("scatter", dict(SCATTER_R1, x0=100000)),
    "lattice-x0-huge": ("lattice", {"mass": 1, "r": 2, "x0": 100000}),
    "lattice-x0-null": ("lattice", {"mass": 1, "r": 2, "x0": None}),
    # a list command is the whole argv, with no scenario file written
    "lattice-no-max-energy": (["lattice", "--mass", "1"], None),
    "lattice-max-energy-huge": (["lattice", "--mass", "1", "--max-energy", str(2**70)], None),
    "scenario-empty-path": (["dims", "--scenario", ""], None),
}

# the start of the stderr line a MALFORMED row prints, where a test pins it
MALFORMED_MESSAGES = {
    "roster-off-shell": "roster[0]: mode mode0: momentum (1, 1, 0, 0) off the mass-1 shell",
    "field-dict": "field: expected list",
    "field-alpha-short": "field[0].alpha: expected [re, im]",
    "field-id-unknown": "field: mode id 3 not in roster\n",
    "field-id-negative": "field: mode id -1 not in roster\n",
    "field-id-twice": "field: mode 1 listed twice\n",
    "field-id-unknown-and-twice": "field: mode 0 listed twice\n",
    "field2-id-unknown": "field2: mode id 7 not in roster\n",
    "state-fermion-count-2": "in_state: fermion count must be 1",
    "state-above-cutoff": "in_state: state outside the basis",
    "statistics-one": "statistics: expected a list of two entries",
    "dump-basis-str": "dump_basis: expected bool",
    "self-interaction-str": "self_interaction: expected bool",
    "lattice-no-max-energy": "lattice: --mass and --max-energy (or --scenario) required",
    "scenario-empty-path": "scenario: cannot read",
    "state-id-twice": "in_state: mode 0 listed twice",
    "state-count-huge": "in_state: state outside the basis",
    "spectrum-field2-and-self": "self_interaction: cannot be combined with field2",
    "field2-null": "field2: expected list",
    "x0-huge": f"x0: slice count exceeds {cli.SPACE_BUDGET} steps\n",
    "lattice-x0-huge": f"x0: slice count exceeds {cli.SPACE_BUDGET} steps\n",
    "lattice-x0-null": "x0: expected int\n",
    "threshold-huge": "threshold: must be a finite number",
    "threshold-infinity": "threshold: must be a finite number",
    "r-huge": f"r: shell enumeration exceeds {cli.SPACE_BUDGET} steps",
    "lattice-max-energy-huge": f"max_energy: shell enumeration exceeds {cli.SPACE_BUDGET} steps",
}


def malformed_argv(tmp_path, name):
    command, scenario = MALFORMED[name]
    if isinstance(command, list):
        return command
    return [command, "--scenario", write_scenario(tmp_path, scenario)]


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exit_2(tmp_path, capsys, name):
    code, out, err = run(capsys, malformed_argv(tmp_path, name))
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: " + MALFORMED_MESSAGES.get(name, ""))
    assert err.count("\n") == 1


# (class, op, field): one variant of each catalog class, each of its
# top-level fields in turn
WRONG_TYPE = [
    (name, ops[0], field)
    for name, ops in workloads.CLASSES.items()
    for field in sorted(ops[0].scenario)
]


@pytest.mark.parametrize(
    "op, field",
    [(op, field) for _, op, field in WRONG_TYPE],
    ids=[f"{name}-{field}" for name, _, field in WRONG_TYPE],
)
def test_wrong_type_field_exits_2_naming_it(tmp_path, capsys, op, field):
    path = write_scenario(tmp_path, dict(op.scenario, **{field: "x"}))
    code, out, err = run(capsys, [op.command, "--scenario", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"scenario error: {field}: ") and err.count("\n") == 1


# WRONG_TYPE's grid with each command's optional fields added, and one
# unknown field (None) per class
OPTIONAL_FIELDS = {"scatter": ["threshold"], "spectrum": ["field2", "self_interaction"]}
MUTATED = [
    (name, ops[0], field)
    for name, ops in workloads.CLASSES.items()
    for field in sorted({*ops[0].scenario, *OPTIONAL_FIELDS.get(ops[0].command, [])}) + [None]
]


@pytest.mark.parametrize(
    "op, field",
    [(op, field) for _, op, field in MUTATED],
    ids=[f"{name}-{field or 'unknown'}" for name, _, field in MUTATED],
)
def test_mutated_field_exits_0_or_2_cleanly(tmp_path, capsys, op, field):
    """One field of a catalog scenario negative, huge, NaN, infinite,
    null or missing, or one unknown field added: exit 0, or exit 2 with
    empty stdout and one `scenario error:` line, and never a traceback."""
    if field is None:
        scenarios = [dict(op.scenario, unknown_field=1)]
    else:
        scenarios = [{k: v for k, v in op.scenario.items() if k != field}]
        scenarios += [
            dict(op.scenario, **{field: value})
            for value in (-1, 10**400, float("nan"), float("inf"), None)
        ]
    for scenario in scenarios:
        code, out, err = run(capsys, [op.command, "--scenario", write_scenario(tmp_path, scenario)])
        assert code in (0, 2), scenario
        if code == 2:
            assert out == "" and err.startswith("scenario error: ") and err.count("\n") == 1


# a valid scenario with one misspelt field, per command
MISSPELT = {
    "dims": dict(FERMION_ROSTER_K3, dump_bases=True),
    "verify": dict(FERMION_ROSTER_K3, cutoff=3),
    "spectrum": dict(SPECTRUM_K3, self_interation=True),
    "scatter": dict(SCATTER_R1, treshold=0.5),
    "lattice": {"mass": 1, "r": 2, "x0": 1, "x_0": 2},
}


@pytest.mark.parametrize("command", MISSPELT)
def test_misspelt_field_is_refused_first(tmp_path, capsys, command):
    """A field the command does not read exits 2 naming it, before any
    field is read: a broken known field ahead of it in the file is not
    reported, and a second unknown field after it is not either."""
    scenario = MISSPELT[command]
    (misspelt,) = set(scenario) - set(cli.FIELDS[command])
    path = write_scenario(tmp_path, scenario)
    assert run(capsys, [command, "--scenario", path]) == (
        2, "", f"scenario error: {misspelt}: unknown field\n"
    )
    known = {k: v for k, v in scenario.items() if k != misspelt}
    first = next(iter(known))
    broken = {**known, first: "x", misspelt: scenario[misspelt], "another_unknown": 1}
    path = write_scenario(tmp_path, broken)
    assert run(capsys, [command, "--scenario", path]) == (
        2, "", f"scenario error: {misspelt}: unknown field\n"
    )
    assert run(capsys, [command, "--scenario", write_scenario(tmp_path, known)])[0] == 0


# one nested object with a misspelt field per kind: (command, the valid
# scenario holding that object, the object, where the refusal points)
NESTED_MISSPELT = {
    "roster-entry": (
        "dims",
        lambda entry: {"roster": [{"statistics": "boson"}, entry], "cutoff_s": 2},
        {"statistics": "boson", "mas": 2},
        "roster[1].mas",
    ),
    "field-term": (
        "spectrum",
        lambda term: dict(SPECTRUM_K3, field2=[{"mode": 0}, term]),
        {"mode": 1, "alpah": [2, 0]},
        "field2[1].alpah",
    ),
    "in-state": (
        "scatter",
        lambda state: dict(SCATTER_R1, in_state=state),
        {"modes": [[0, 1], [1, 1]], "mode": []},
        "in_state.mode",
    ),
}


@pytest.mark.parametrize("kind", NESTED_MISSPELT)
def test_nested_misspelt_field_is_refused_first(tmp_path, capsys, kind):
    """A field a nested object's reader does not read exits 2 naming it,
    before any of that object's fields is read: a broken known field
    ahead of it is not reported, and a second unknown field after it is
    not either."""
    command, scenario, obj, where = NESTED_MISSPELT[kind]
    misspelt = where.rpartition(".")[2]
    known = {k: v for k, v in obj.items() if k != misspelt}
    broken = {k: "x" for k in known} | {misspelt: obj[misspelt], "another_unknown": 1}
    for nested in (obj, broken):
        path = write_scenario(tmp_path, scenario(nested))
        assert run(capsys, [command, "--scenario", path]) == (
            2, "", f"scenario error: {where}: unknown field\n"
        )
    assert run(capsys, [command, "--scenario", write_scenario(tmp_path, scenario(known))])[0] == 0


@pytest.mark.parametrize(
    "name", [name for name in MALFORMED if name.startswith("state-")]
)
def test_in_state_checked_before_hamiltonian(tmp_path, capsys, monkeypatch, name):
    def unreachable(*args):
        raise AssertionError("hamiltonian built before in_state was checked")

    monkeypatch.setattr(toyqft.scatter, "hamiltonian", unreachable)
    code, out, err = run(capsys, malformed_argv(tmp_path, name))
    assert (code, out) == (2, "")
    assert err.startswith("scenario error:")


@pytest.mark.parametrize(
    "name", [name for name in MALFORMED if name.startswith(("roster-mass-", "momentum-"))]
)
def test_roster_errors_name_the_field(tmp_path, capsys, name):
    field = "mass" if name.startswith("roster-mass-") else "momentum"
    code, out, err = run(capsys, malformed_argv(tmp_path, name))
    assert (code, out) == (2, "")
    assert err.startswith(f"scenario error: roster[0].{field}: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_spectrum_rejects_bad_tol(tmp_path, capsys, tol):
    path = write_scenario(tmp_path, SPECTRUM_K3)
    code, out, err = run(capsys, ["spectrum", "--scenario", path, "--tol", tol])
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: tol:")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_tol(tmp_path, capsys, tol):
    path = write_scenario(tmp_path, FERMION_ROSTER_K3)
    code, out, err = run(capsys, ["verify", "--scenario", path, f"--tol={tol}"])
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: tol:")


@pytest.mark.parametrize("joined", [True, False], ids=["joined", "separate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize(
    "command, scenario, flag",
    [
        ("verify", FERMION_ROSTER_K3, "--tol"),
        ("spectrum", SPECTRUM_K3, "--tol"),
        ("scatter", SCATTER_R1, "--coupling"),
    ],
    ids=["verify", "spectrum", "scatter"],
)
def test_non_finite_option_value_in_either_spelling(
    tmp_path, capsys, command, scenario, flag, value, joined
):
    """"--tol=-inf" and "--tol -inf" both reach the finite check."""
    path = write_scenario(tmp_path, scenario)
    value_args = [f"{flag}={value}"] if joined else [flag, value]
    code, out, err = run(capsys, [command, "--scenario", path, *value_args])
    assert (code, out) == (2, "")
    assert err.startswith(f"scenario error: {flag[2:]}: ") and err.count("\n") == 1


def _two_block_scatter(masses, r, s, x0, stats, modes):
    return {
        "mass1": masses[0], "mass2": masses[1], "r": r, "cutoff_s": s, "x0": x0,
        "statistics": stats, "in_state": {"modes": modes},
    }


# (g, id, scenario, formats): three scenarios at two couplings in both
# formats, then every catalog scatter variant at 0.7 in json
EVEN_IN_THE_COUPLING = [
    (g, name, _two_block_scatter(*shape), ("json", "table"))
    for g in ("0.7", "2.5")
    for name, shape in {
        "bb-r2-s3-x1": ((1, 1), 2, 3, 1, ["boson", "boson"], [[0, 1], [9, 1]]),
        "fb-m12-r3-s2-x2": ((1, 2), 3, 2, 2, ["fermion", "boson"], [[0, 1], [21, 1]]),
        "ff-m11-r2-s2-x1": ((1, 1), 2, 2, 1, ["fermion", "fermion"], [[0, 1], [9, 1]]),
    }.items()
] + [("0.7", op.key, op.scenario, ("json",)) for op in VARIANTS if op.command == "scatter"]


@pytest.mark.parametrize(
    "g, scenario, formats",
    [(g, scenario, formats) for g, _, scenario, formats in EVEN_IN_THE_COUPLING],
    ids=[f"{g}-{name}" for g, name, _, _ in EVEN_IN_THE_COUPLING],
)
def test_scatter_is_even_in_the_coupling(tmp_path, capsys, g, scenario, formats):
    """H is chiral, so S(-g) = Gamma S(g) Gamma with Gamma diagonal +-1:
    scatter prints the same bytes at -g as at g but for `coupling`."""
    path = write_scenario(tmp_path, scenario)
    for fmt in formats:
        argv = ["scatter", "--scenario", path, "--format", fmt, "--coupling"]
        plus, minus = (run(capsys, argv + [value]) for value in (g, "-" + g))
        assert plus[0] == 0 and len(plus[1]) > 100
        assert minus == (0, plus[1].replace(f'"coupling":{g}', f'"coupling":-{g}'), "")


def test_negative_option_value_as_separate_argument(tmp_path, capsys):
    path = write_scenario(tmp_path, SCATTER_R1)
    joined = run(capsys, ["scatter", "--scenario", path, "--coupling=-0.5"])
    assert run(capsys, ["scatter", "--scenario", path, "--coupling", "-.5"]) == joined
    assert run(capsys, ["scatter", "--scenario", path, "--coupling", "-5e-1"]) == joined
    assert joined[0] == 0


@pytest.mark.parametrize("coupling", ["nan", "inf", "-inf"])
def test_scatter_rejects_non_finite_coupling(tmp_path, capsys, monkeypatch, coupling):
    def unreachable(*args):
        raise AssertionError("space built before the coupling was checked")

    monkeypatch.setattr(cli, "build_space", unreachable)
    path = write_scenario(tmp_path, SCATTER_R1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["scatter", "--scenario", path, f"--coupling={coupling}"])
    assert (code, out) == (2, "")
    assert err == "scenario error: coupling: must be a finite number\n"
    assert caught == []


# Roster [F m1, B, F m1, B] at s=3: two fermions of one mass, two bosons.
MIXED_ROSTER = {
    "roster": [
        {"statistics": "fermion", "mass": 1},
        {"statistics": "boson"},
        {"statistics": "fermion", "mass": 1},
        {"statistics": "boson"},
    ],
    "cutoff_s": 3,
}
VERIFY_ROWS = [
    "creator = adjoint(annihilator)",
    "AC-operator Hermitian",
    "fermion exchange relations",
    "fermion number relation (off boundary)",
    "boson commutators",
    "boson CCR (off boundary)",
    "boson boundary rule [a, a*] = -N",
]


def _mutated(ladder, change):
    return lambda space, mode_id: OperatorMatrix(space, change(ladder(space, mode_id).mat))


def _unsigned(mat):
    return np.abs(mat).astype(complex)


def _unit_sqrt(mat):
    return np.sign(mat.real).astype(complex)


VERIFY_MUTATIONS = {
    "none": (None, set()),
    "unsigned": (_unsigned, {VERIFY_ROWS[2], VERIFY_ROWS[3]}),
    "unit-sqrt": (_unit_sqrt, {VERIFY_ROWS[5], VERIFY_ROWS[6]}),
    "creator-x1.5": ("creator", set(VERIFY_ROWS) - {VERIFY_ROWS[2], VERIFY_ROWS[4]}),
}


@pytest.mark.parametrize("name", VERIFY_MUTATIONS)
def test_verify_catches_broken_ladders(tmp_path, capsys, monkeypatch, name):
    change, failing = VERIFY_MUTATIONS[name]
    if change == "creator":
        monkeypatch.setattr(cli, "creator", _mutated(cli.creator, lambda m: 1.5 * m))
    elif change is not None:
        monkeypatch.setattr(cli, "annihilator", _mutated(cli.annihilator, change))
        monkeypatch.setattr(cli, "creator", _mutated(cli.creator, change))
    path = write_scenario(tmp_path, MIXED_ROSTER)
    code, out, _ = run(capsys, ["verify", "--scenario", path])
    rows = json.loads(out)["rows"]
    assert [row[0] for row in rows] == VERIFY_ROWS
    assert {row[0] for row in rows if row[2] == "FAIL"} == failing
    assert code == (1 if failing else 0)


# One valid scenario per command; the fuzz test breaks one field of one.
VALID = {
    "dims": dict(FERMION_ROSTER_K3, dump_basis=True),
    "verify": {"roster": [{"statistics": "fermion", "mass": 1}, {"statistics": "boson"}], "cutoff_s": 2},
    "spectrum": dict(SPECTRUM_K3, field2=[{"mode": 2}]),
    "scatter": dict(SCATTER_R1, threshold=0.0),
    "lattice": {"mass": 1, "r": 2, "x0": 1},
}
SMALL_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


@st.composite
def broken_scenarios(draw):
    """(command, scenario, extra argv): a valid scenario, or one with one
    field, at most one level down, deleted or replaced by a JSON value of
    another type."""
    command = draw(st.sampled_from(sorted(VALID)))
    scenario = json.loads(json.dumps(VALID[command]))
    extra = []
    if command in ("verify", "spectrum") and draw(st.booleans()):
        extra = ["--tol", draw(st.sampled_from(["0", "-1", "nan", "inf", "1e-3"]))]
    if not draw(st.booleans()):
        return command, scenario, extra
    parent = scenario
    key = draw(st.sampled_from(sorted(scenario)))
    child = scenario[key]
    if isinstance(child, (dict, list)) and child and draw(st.booleans()):
        parent = child
        key = draw(st.sampled_from(sorted(child) if isinstance(child, dict) else range(len(child))))
    old = parent[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(SMALL_JSON.filter(lambda v: type(v) is not type(old)))
    return command, scenario, extra


@settings(derandomize=True, max_examples=150, deadline=None)
@given(broken_scenarios())
def test_fuzzed_scenarios_exit_cleanly(case):
    command, scenario, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(path), *extra])
    assert code in ((0, 1, 2) if command == "verify" else (0, 2))
    assert code != 2 or (out.getvalue() == "" and err.getvalue().startswith(("scenario error:", "error:")))


def test_json_output_byte_identical(tmp_path, capsys):
    path = write_scenario(tmp_path, FERMION_ROSTER_K3)
    _, out1, _ = run(capsys, ["verify", "--scenario", path])
    _, out2, _ = run(capsys, ["verify", "--scenario", path])
    assert out1 == out2


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["dims", "--scenario", "/no/such/file.json"])
    assert code == 2
    assert "scenario" in err


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["dims", "--scenario", str(path)])
    assert code == 2
    assert "line" in err


def test_schema_violation_exit_2(tmp_path, capsys):
    path = write_scenario(tmp_path, {"roster": [{"statistics": "quark"}], "cutoff_s": 2})
    code, _, err = run(capsys, ["dims", "--scenario", str(path)])
    assert code == 2
    assert "statistics" in err


def test_emit_report_empty_csv():
    report = {"columns": ["out_state", "probability", "conserves_p"], "rows": []}
    assert emit_report(report, "csv") == "out_state,probability,conserves_p\n"


def test_emit_report_json_round_trips():
    report = {"columns": ["a"], "rows": [["x", 1.5]]}
    assert json.loads(emit_report(report, "json")) == report


def _r1_norm():
    """||H||_1 of SCATTER_R1's Hamiltonian."""
    space = build_space(build_roster(1, 1, 1), 2)
    return hamiltonian(space, 0, 1, 1, 1).one_norm()


@pytest.mark.parametrize("over", ["1e308", "-1e308", "just-over"])
def test_scatter_rejects_coupling_over_bound(tmp_path, capsys, monkeypatch, over):
    def unreachable(*args):
        raise AssertionError("exp action started before the coupling was checked")

    monkeypatch.setattr(toyqft.scatter, "apply_unitary_exp", unreachable)
    coupling = repr(toyqft.scatter.COUPLING_BOUND / _r1_norm() * (1 + 1e-9)) if over == "just-over" else over
    path = write_scenario(tmp_path, SCATTER_R1)
    code, out, err = run(capsys, ["scatter", "--scenario", path, f"--coupling={coupling}"])
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: coupling: |g|·‖H‖₁ = ")
    assert err.endswith(" exceeds 1e4\n") and err.count("\n") == 1


def test_scatter_coupling_just_under_bound_runs(tmp_path, capsys):
    coupling = repr(toyqft.scatter.COUPLING_BOUND / _r1_norm() * (1 - 1e-9))
    path = write_scenario(tmp_path, SCATTER_R1)
    code, out, _ = run(capsys, ["scatter", "--scenario", path, f"--coupling={coupling}"])
    assert code == 0
    assert sum(row[1] for row in json.loads(out)["rows"]) == pytest.approx(1.0, abs=1e-9)


# r=2, s=3, x0=0 with one particle per block: H's block on the even
# (-1)^N sector has 172 of the 1,330 kets and a smaller ||H||_1
SCATTER_R2_EVEN = dict(SCATTER_R1, r=2, cutoff_s=3, in_state={"modes": [[0, 1], [9, 1]]})


def _r2_even_norm():
    """||H||_1 of SCATTER_R2_EVEN's Hamiltonian block on the even sector."""
    space = build_space(build_roster(1, 1, 2), 3)
    even = np.flatnonzero(space.occupations.sum(1) % 2 == 0)
    return hamiltonian(space, 0, 2, 1, 1, even).one_norm()


def test_scatter_guard_uses_the_sector_norm(tmp_path, capsys):
    assert _r2_even_norm() == 25.0
    path = write_scenario(tmp_path, SCATTER_R2_EVEN)
    under = repr(toyqft.scatter.COUPLING_BOUND / _r2_even_norm() * (1 - 1e-9))
    code, out, _ = run(capsys, ["scatter", "--scenario", path, f"--coupling={under}"])
    assert code == 0
    assert sum(row[1] for row in json.loads(out)["rows"]) == pytest.approx(1.0, abs=1e-9)
    over = repr(toyqft.scatter.COUPLING_BOUND / _r2_even_norm() * (1 + 1e-9))
    code, out, err = run(capsys, ["scatter", "--scenario", path, f"--coupling={over}"])
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: coupling: |g|·‖H‖₁ = ")
    assert err.endswith(" exceeds 1e4\n") and err.count("\n") == 1


def test_scatter_peak_traced_memory(tmp_path):
    """One flagship r=2, s=3 scatter op allocates at most 2 MiB at its
    peak: H and the series live on the 172-ket even sector."""
    path = write_scenario(tmp_path, SCATTER_R2_EVEN)

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["scatter", "--scenario", path])

    assert op() == 0  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        assert op() == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# two fermions and two bosons, statistics interleaved as in a hand-written roster
VERIFY_MIXED = {
    "roster": [
        {"statistics": "fermion", "mass": 1},
        {"statistics": "boson"},
        {"statistics": "fermion", "mass": 1},
        {"statistics": "boson"},
    ],
    "cutoff_s": 2,
}


def test_verify_leaves_numpy_random_out(tmp_path):
    path = write_scenario(tmp_path, VERIFY_MIXED)
    check = (
        "import contextlib, io, sys, toyqft.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = toyqft.cli.main(['verify', '--scenario', {path!r}])\n"
        "print(code, 'numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.stdout == "0 False\n"


def test_verify_output_independent_of_seed(tmp_path, capsys, monkeypatch):
    """verify draws alpha from a fixed seed, so TOYQFT_SEED changes
    nothing, set or unset, numeric or not."""
    path = write_scenario(tmp_path, VERIFY_MIXED)
    monkeypatch.delenv("TOYQFT_SEED", raising=False)
    unset = run(capsys, ["verify", "--scenario", path])
    assert unset[0] == 0
    for seed in ("0", "1", "12345", "abc", ""):
        monkeypatch.setenv("TOYQFT_SEED", seed)
        assert run(capsys, ["verify", "--scenario", path]) == unset


def test_scatter_strong_coupling_matches_dense_column(tmp_path, capsys):
    scenario = dict(SCATTER_R1, r=2, cutoff_s=2, x0=1, in_state={"modes": [[0, 1], [9, 1]]})
    path = write_scenario(tmp_path, scenario)
    code, out, _ = run(capsys, ["scatter", "--scenario", path, "--coupling", "30"])
    assert code == 0
    space = build_space(build_roster(1, 1, 2), 2)
    s = scattering_operator(hamiltonian(space, 1, 2, 1, 1), coupling=30.0)
    expected = np.abs(s.mat[:, ket(space, 0, 9)]) ** 2
    labels = {
        label: n for n, label in enumerate(cli._labels(space, np.arange(space.dimension)))
    }
    got = np.zeros(space.dimension)
    for label, p, _ in json.loads(out)["rows"]:
        got[labels[label]] = p
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_main_twice_in_one_process_matches_separate_runs(tmp_path):
    runs = [
        ["dims", "--scenario", write_scenario(tmp_path, FERMION_ROSTER_K3, "k3.json")],
        ["scatter", "--scenario", write_scenario(tmp_path, SCATTER_R1, "r1.json"), "--format", "csv"],
    ]
    separate = [
        subprocess.run(
            [sys.executable, "-m", "toyqft.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        for argv in runs
    ]
    for argv, alone in zip(runs, separate):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert (code, out.getvalue()) == (alone.returncode, alone.stdout)
    assert cli._build_parser() is cli._build_parser()


def test_cli_import_leaves_scipy_out():
    check = "import sys, toyqft.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.stdout == "False\n"


def test_cli_imports_only_public_toyqft_names():
    """cli uses the library through its public names only: no
    _-prefixed module or name (dunders such as __version__ aside)."""
    private = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("toyqft")):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
            private += [n for n in names if n.startswith("_") and not n.endswith("__")]
    assert private == []


def test_cli_leaves_the_physics_to_the_library():
    """cli reaches the field spectrum and S|in> through `field_spectrum`
    and `scatter_column`: it imports none of the operators, the exp
    action or the spectrum grouping they are built from."""
    imported = {
        alias.name
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    physics = {"hamiltonian", "apply_unitary_exp", "grouped_union", "free_field"}
    assert imported & physics == set()
    functions = [toyqft.scatter.hamiltonian, toyqft.scatter.apply_unitary_exp,
                 toyqft.fields.grouped_union, toyqft.fields.free_field]
    assert not [name for name, value in vars(cli).items() if any(value is f for f in functions)]


def test_cli_reads_the_scenario_only_through_require():
    """No cli function but `_require` subscripts `scenario`, calls a
    method on it or tests a field `in` it: each top-level field has one
    reader."""
    def is_scenario(node):
        return isinstance(node, ast.Name) and node.id == "scenario"

    tree = ast.parse(Path(cli.__file__).read_text())
    direct = [
        f"{func.name}:{node.lineno}"
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name != "_require"
        for node in ast.walk(func)
        if isinstance(node, (ast.Subscript, ast.Attribute)) and is_scenario(node.value)
        or isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(map(is_scenario, node.comparators))
    ]
    assert direct == []


def test_cli_checks_finiteness_only_in_typed():
    """`sys.float_info` and `float("...")` appear in cli only inside
    `_typed`, the one finite-number rule; cli reads no environment."""
    source = Path(cli.__file__).read_text()
    tree = ast.parse(source)
    typed = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_typed")
    inside = set(map(id, ast.walk(typed)))
    outside = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Attribute) and node.attr == "float_info"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and any(isinstance(a, ast.Constant) for a in node.args)
        )
    ]
    assert outside == []
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "os" not in imported and "TOYQFT_SEED" not in source


# one catalog variant per command, and lattice from its scenario and flags
RUNNER_CASES = [(op.command, op.scenario) for op in {op.command: op for op in VARIANTS}.values()]
RUNNER_CASES += [
    ("dims", dict(FERMION_ROSTER_K3, dump_basis=True)),
    ("lattice", {"mass": 1, "r": 2, "x0": 1}),
    (["lattice", "--mass", "1", "--max-energy", "2", "--x0", "1"], None),
]


@pytest.mark.parametrize(
    "command, scenario", RUNNER_CASES,
    ids=[c if isinstance(c, str) else "lattice-flags" for c, _ in RUNNER_CASES],
)
def test_runners_return_their_output_and_print_nothing(tmp_path, capsys, command, scenario):
    """Each runner returns (rendered report, exit code) and writes
    nothing; `main` prints that text once."""
    if scenario is None:
        base = command
    else:
        base = [command, "--scenario", write_scenario(tmp_path, scenario)]
    for fmt in ("table", "json"):
        args = cli._build_parser().parse_args(base + ["--format", fmt])
        loaded = None if scenario is None else cli._load_scenario(args.scenario)
        text, code = args.run(loaded, args)
        assert capsys.readouterr() == ("", "")
        assert type(text) is str and code == 0
        assert run(capsys, base + ["--format", fmt]) == (code, text, "")
    assert json.loads(text)["kind"] == args.command


def test_every_toyqft_export_is_used_outside_tests():
    """Each name `toyqft/__init__.py` imports appears outside tests/: in
    a src module (in its own module, away from its definition line), in
    benchmarks/*.py or in README.md."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "toyqft"
    init = package / "__init__.py"
    outside = [(root / "README.md").read_text()]
    outside += [p.read_text() for p in sorted((root / "benchmarks").glob("*.py"))]
    modules = [p.read_text() for p in sorted(package.glob("*.py")) if p != init]
    unused = []
    for node in ast.parse(init.read_text()).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for name in (alias.name for alias in node.names):
            texts = outside + [
                re.sub(rf"^(def|class) {name}\b.*$", "", text, flags=re.M) for text in modules
            ]
            if not any(re.search(rf"\b{name}\b", text) for text in texts):
                unused.append(f"{node.module}.{name}")
    assert unused == []
