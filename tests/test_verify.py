"""verify's batched bracket computation against the per-pair reference,
and the ladders it is built from.

`reference_algebra_checks` is the per-pair loop verify ran before its
rows came from one batch: every bracket is formed with `commutator` or
`anticommutator`, and the number and boundary rules subtract the identity
and add the number operator.  The batch must return the same dict: the
same rows, in the same order, with the same floats.

Each mode's annihilator is built by one row lookup, once per space, and
a* is its transpose: `raised_creator` is the lookup of raised rows that a*
was built by before, the oracle for that transpose.
"""

import contextlib
import gc
import io
import json
import random
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toyqft import (
    ParticleMode,
    Statistics,
    anticommutator,
    build_roster,
    build_space,
    cli,
    commutator,
    ladder,
)
from toyqft.fock import FockSpace
from toyqft.ladder import OperatorMatrix, annihilator, creator

from conftest import identity, number_operator


def reference_algebra_checks(space, rng):
    """{identity name: max violation}, one bracket at a time."""
    eye = identity(space)
    modes = space.modes
    ann = {m.id: cli.annihilator(space, m.id) for m in modes}
    cre = {m.id: cli.creator(space, m.id) for m in modes}
    occ = space.occupations
    off = occ.sum(1) < space.cutoff_s
    present = {m.statistics for m in modes}
    rows = ["creator = adjoint(annihilator)", "AC-operator Hermitian"]
    rows += [row for st, names in ladder._ROWS.items() if st in present for row in names]
    worst = dict.fromkeys(rows, 0.0)

    def note(row, violation, cols=None):
        """Largest |entry| of an operator, in the columns cols marks."""
        data = violation.data if cols is None else violation.data[cols[violation.cols]]
        worst[row] = max(worst[row], np.abs(data).max(initial=0.0))

    for m in modes:
        note(rows[0], cre[m.id] - ann[m.id].adjoint())
        alpha = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        eta = alpha * ann[m.id] + alpha.conjugate() * cre[m.id]
        note(rows[1], eta - eta.adjoint())

    # Two fermions of one species, equal (block, mass), anticommute and
    # every other same-statistics pair commutes; the boundary rule reuses
    # the i = j bracket [a_i, a_i*].
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if mi.statistics is not mj.statistics:
                continue
            boson = mi.statistics is Statistics.BOSON
            exchange, number, *boundary = ladder._ROWS[mi.statistics]
            anti = not boson and (mi.block, mi.mass) == (mj.block, mj.mass)
            bracket = anticommutator if anti else commutator
            note(exchange, bracket(ann[i], ann[j]))
            if boson:
                note(exchange, bracket(cre[i], cre[j]))
            mixed = bracket(ann[i], cre[j])
            note(number, mixed - eye if i == j else mixed, off)
            if boson and i == j:
                note(boundary[0], mixed + number_operator(space, i), ~off)
    return worst


# ladder replaced -> its matrix as a function of (space, true matrix)
MUTATIONS = {
    "correct": None,
    "creator x1.1": ("creator", lambda space, m: 1.1 * m),
    "creator one ket off": ("creator", lambda space, m: np.roll(m, 1, axis=0)),
    "annihilator odd columns negated": (
        "annihilator",
        lambda space, m: m * np.where(np.arange(space.dimension) % 2, -1, 1),
    ),
    "annihilator times i": ("annihilator", lambda space, m: 1j * m),
}

MODES = st.lists(
    st.tuples(st.sampled_from(list(Statistics)), st.integers(0, 2)), max_size=6
)


def _space(roster, s):
    modes = [ParticleMode(i, f"m{i}", stats, mass) for i, (stats, mass) in enumerate(roster)]
    return build_space(modes, s)


def _both(space, seed, mutation):
    """(batch, reference) on one space with one seeded draw each."""
    broken = contextlib.nullcontext()
    if MUTATIONS[mutation]:
        name, change = MUTATIONS[mutation]
        ladder = getattr(cli, name)
        broken = mock.patch.object(
            cli, name, lambda space, i: OperatorMatrix(space, change(space, ladder(space, i).mat))
        )
    with broken:
        return (
            cli._algebra_checks(space, random.Random(seed)),
            reference_algebra_checks(space, random.Random(seed)),
        )


F, B = Statistics.FERMION, Statistics.BOSON
FERMIONS_OF_TWO_FAMILIES = [(F, 1), (F, 2), (F, 1)]
MIXED = [(B, 0), (F, 1), (B, 2), (F, 1)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    roster=MODES,
    s=st.integers(1, 4),
    seed=st.sampled_from([0, 7]),
    mutation=st.sampled_from(sorted(MUTATIONS)),
)
@example(roster=[], s=1, seed=0, mutation="correct")
@example(roster=FERMIONS_OF_TWO_FAMILIES, s=3, seed=0, mutation="correct")
@example(roster=MIXED, s=3, seed=7, mutation="correct")
@example(roster=MIXED, s=2, seed=0, mutation="creator x1.1")
@example(roster=[(B, 0)] * 3, s=4, seed=7, mutation="creator x1.1")
def test_batched_verify_matches_per_pair_reference(roster, s, seed, mutation):
    batch, reference = _both(_space(roster, s), seed, mutation)
    assert list(batch) == list(reference)
    assert list(batch.values()) == list(reference.values())


@pytest.mark.parametrize("r, s", [(1, 2), (2, 2), (2, 3)])
def test_verify_keeps_equal_mass_fermion_blocks_apart(r, s):
    """The two fermion blocks of `build_roster(1, 1, r, F, F)` are two
    species: the batch matches the per-pair reference, which brackets
    the blocks by the commutator, every identity holds exactly, and the
    creator matches the raised-row lookup of the same species."""
    space = build_space(build_roster(1, 1, r, F, F), s)
    batch, reference = _both(space, 0, "correct")
    assert list(batch.items()) == list(reference.items())
    assert not any(batch.values())
    for mode in space.modes:
        c = creator(space, mode.id)
        for got, ref in zip((c.rows, c.cols, c.data), raised_creator(space, mode.id)):
            assert got.tobytes() == ref.tobytes()


def test_batched_verify_sees_nonzero_violations():
    """The grid is not all zeros: each mutation gives a violation the
    batch must reproduce, and correct ladders give none."""
    space = _space(MIXED, 3)
    for mutation in MUTATIONS:
        batch, reference = _both(space, 0, mutation)
        assert list(batch.items()) == list(reference.items())
        assert (max(batch.values()) > 0.05) == (mutation != "correct")


def test_verify_peak_traced_memory():
    """The batch holds every bracket's O(n^2 dim) terms at once; at r=2,
    s=3 (18 boson modes, dim 1,330) that must stay under 16 MiB."""
    space = build_space(build_roster(1, 1, 2), 3)
    cli._algebra_checks(space, random.Random(0))  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        cli._algebra_checks(space, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_verify_merges_twice():
    """One merge sums every checked operator, the identity and number
    terms included; the other forms eta - adjoint(eta)."""
    space = _space(MIXED, 3)
    calls, real = [], ladder._merge_terms

    def merge_terms(keys, data):
        calls.append(len(keys))
        return real(keys, data)

    with mock.patch.object(ladder, "_merge_terms", merge_terms):
        cli._algebra_checks(space, random.Random(0))
    assert len(calls) == 2


@contextlib.contextmanager
def counted_lookups():
    """The row counts of every `FockSpace.find_rows` call made inside."""
    calls, real = [], FockSpace.find_rows

    def find_rows(space, rows):
        calls.append(len(rows))
        return real(space, rows)

    with mock.patch.object(FockSpace, "find_rows", find_rows):
        yield calls


def run_cli(argv, scenario):
    """stdout of `toyqft <argv> --scenario <file holding scenario>`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main([*argv, "--scenario", str(path)])
    return out.getvalue()


def raised_creator(space, mode_id):
    """(rows, cols, data) of a* by its own lookup: each ket's row with the
    mode's count raised by one, found among the kets, with sqrt of the
    raised count and the sign of the occupied fermions of the same species
    ahead: two fermions of one (block, mass) anticommute."""
    mode = space.mode(mode_id)
    occ = space.occupations
    raised = occ.copy()
    raised[:, mode_id] += 1
    rows = space.find_rows(raised)
    cols = np.flatnonzero(rows >= 0)
    values = np.sqrt(raised[cols, mode_id])
    if space.is_fermion(mode_id):
        ahead = [
            m.id for m in space.modes[:mode_id]
            if space.is_fermion(m.id) and (m.block, m.mass) == (mode.block, mode.mass)
        ]
        values = np.where(occ[cols][:, ahead].sum(1) % 2, -values, values)
    rows = rows[cols]
    order = np.argsort(rows)
    return rows[order], cols[order], values[order].astype(complex)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(roster=MODES, s=st.integers(1, 4))
def test_verify_looks_up_rows_once_per_mode(roster, s):
    """A verify run builds each mode's annihilator by one lookup over
    every ket, and its creator by none."""
    scenario = {
        "roster": [{"statistics": stats.value, "mass": mass} for stats, mass in roster],
        "cutoff_s": s,
    }
    with counted_lookups() as calls:
        out = run_cli(["verify"], scenario)
    assert calls == [_space(roster, s).dimension] * len(roster)
    assert json.loads(out)["kind"] == "verify"


def test_scatter_looks_up_the_table_once_per_mode():
    """scatter's fields build each mode's annihilator by one lookup over
    every ket; its only other lookup is of the in-state's one row."""
    space = build_space(build_roster(1, 1, 2), 2)
    scenario = {
        "mass1": 1, "mass2": 1, "r": 2, "cutoff_s": 2, "x0": 1,
        "in_state": {"modes": [[0, 1], [9, 1]]},
    }
    with counted_lookups() as calls:
        run_cli(["scatter"], scenario)
    assert calls.count(space.dimension) == len(space.modes)
    assert calls.count(1) == 1
    assert set(calls) == {space.dimension, 1}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(roster=MODES, s=st.integers(1, 4))
def test_annihilator_built_once_and_creator_is_its_transpose(roster, s):
    """A second annihilator call wraps the same read-only arrays with no
    lookup; creator makes none either and holds the annihilator's
    entries with rows and columns swapped, bit for bit, which are the
    entries of the raised-row lookup."""
    space = _space(roster, s)
    for mode in space.modes:
        a = annihilator(space, mode.id)
        with counted_lookups() as calls:
            again = annihilator(space, mode.id)
            c = creator(space, mode.id)
        assert calls == []
        for array, same in zip((a.rows, a.cols, a.data), (again.rows, again.cols, again.data)):
            assert same is array
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]
        by_col = np.argsort(a.cols)
        swapped = a.cols[by_col], a.rows[by_col], a.data[by_col]
        for got, want, ref in zip((c.rows, c.cols, c.data), swapped, raised_creator(space, mode.id)):
            assert got.tobytes() == want.tobytes() == ref.tobytes()


def test_space_with_built_ladders_is_freed_without_the_cycle_collector():
    """The space keeps its annihilators' arrays, not operators that refer
    back to it, so dropping the last reference frees it at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        space = build_space(build_roster(1, 1, 1), 2)
        for mode in space.modes:
            creator(space, mode.id)
        freed = weakref.ref(space)
        del space
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


# `ladder._anticommute` replaced by another exchange rule
EXCHANGE_RULES = {
    "every fermion its own family": lambda a, b: a.statistics is b.statistics is F and a.id == b.id,
    "all fermions one family": lambda a, b: a.statistics is b.statistics is F,
}


@pytest.mark.parametrize("rule", sorted(EXCHANGE_RULES))
def test_exchange_rule_lives_in_one_function(rule):
    """Patching `ladder._anticommute` alone changes the annihilators'
    signs, and verify, which reads the same function for its brackets,
    passes every row on the patched ladders."""
    roster = [(F, 1), (F, 1), (F, 2), (B, 1)]
    scenario = {
        "roster": [{"statistics": stats.value, "mass": mass} for stats, mass in roster],
        "cutoff_s": 3,
    }
    space = _space(roster, 3)
    default = [annihilator(space, i) for i in range(4)]
    with mock.patch.object(ladder, "_anticommute", EXCHANGE_RULES[rule]):
        space = _space(roster, 3)
        patched = [annihilator(space, i) for i in range(4)]
        report = json.loads(run_cli(["verify"], scenario))
    pairs = list(zip(default, patched))
    for a, b in pairs:
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert np.array_equal(np.abs(a.data), np.abs(b.data))
    # mode 1 loses mode 0's sign when each fermion is its own family;
    # mode 2 gains the signs of modes 0 and 1 when all are one family
    moved = 1 if rule == "every fermion its own family" else 2
    changed = [not np.array_equal(a.data, b.data) for a, b in pairs]
    assert changed == [i == moved for i in range(4)]
    assert [status for *_, status in report["rows"]] == ["pass"] * len(report["rows"])
