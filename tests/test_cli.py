import json

import numpy as np
import pytest

from toyqft import cli
from toyqft.cli import emit_report, main


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
    "field-id-str": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": "a"}])),
    "field-id-float": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 1.5}])),
    "field-alpha-str": ("spectrum", dict(FERMION_ROSTER_K3, field=[{"mode": 0, "alpha": ["1", 0]}])),
    "cutoff-bool": ("dims", dict(FERMION_ROSTER_K3, cutoff_s=True)),
}


@pytest.mark.parametrize("command, scenario", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exit_2(tmp_path, capsys, command, scenario):
    path = write_scenario(tmp_path, scenario)
    code, out, err = run(capsys, [command, "--scenario", path])
    assert (code, out) == (2, "")
    assert err.startswith("scenario error:")


@pytest.mark.parametrize(
    "name", [name for name in MALFORMED if name.startswith("state-")]
)
def test_in_state_checked_before_hamiltonian(tmp_path, capsys, monkeypatch, name):
    def unreachable(*args):
        raise AssertionError("hamiltonian built before in_state was checked")

    monkeypatch.setattr(cli, "hamiltonian", unreachable)
    command, scenario = MALFORMED[name]
    code, out, err = run(capsys, [command, "--scenario", write_scenario(tmp_path, scenario)])
    assert (code, out) == (2, "")
    assert err.startswith("scenario error:")


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
