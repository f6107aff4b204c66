"""verify's batched bracket computation against the per-pair reference.

`reference_algebra_checks` is the per-pair loop verify ran before its
rows came from one batch: every bracket is formed with `commutator` or
`anticommutator`, and the number and boundary rules subtract the identity
and add the number operator.  The batch must return the same dict: the
same rows, in the same order, with the same floats.
"""

import contextlib
import random
import tracemalloc
from unittest import mock

import numpy as np
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
)
from toyqft.fock import fermion_family
from toyqft.ladder import OperatorMatrix

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
    rows += [row for st, names in cli._ROWS.items() if st in present for row in names]
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

    # Same-family fermions anticommute and every other same-statistics
    # pair commutes; the boundary rule reuses the i = j bracket [a_i, a_i*].
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if mi.statistics is not mj.statistics:
                continue
            boson = mi.statistics is Statistics.BOSON
            exchange, number, *boundary = cli._ROWS[mi.statistics]
            anti = not boson and fermion_family(mi) == fermion_family(mj)
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
