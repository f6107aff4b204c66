import contextlib
import functools
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toyqft import (
    EnergyMomentum,
    LatticePoint,
    Statistics,
    anticommutator,
    build_space,
    commutator,
    field_at,
    hyperboloid,
    lorentz_product,
    minkowski_sq,
    phase,
    space_volume,
)
from toyqft import cli, spacetime
from toyqft.errors import DivisionByZeroEnergy, UnknownMode
from toyqft.scatter import build_roster


def brute_force_hyperboloid(m, r):
    points = []
    for p0 in range(r + 1):
        for p1 in range(-r, r + 1):
            for p2 in range(-r, r + 1):
                for p3 in range(-r, r + 1):
                    if p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 == m * m:
                        points.append((p0, p1, p2, p3))
    return sorted(points)


def brute_force_volume(x0):
    return sum(
        1
        for x1 in range(-x0, x0 + 1)
        for x2 in range(-x0, x0 + 1)
        for x3 in range(-x0, x0 + 1)
        if x1 * x1 + x2 * x2 + x3 * x3 <= x0 * x0
    )


def test_minkowski_sq():
    assert minkowski_sq((1, 0, 0, 0)) == 1
    assert minkowski_sq((2, 1, 1, 1)) == 1
    assert minkowski_sq((1, 1, 0, 0)) == 0
    assert minkowski_sq((0, 1, 0, 0)) == -1


def test_lorentz_product():
    assert lorentz_product((1, 0, 0, 0), (3, 0, 0, 0)) == 3
    assert lorentz_product((1, 1, 0, 0), (1, 1, 0, 0)) == 0
    assert lorentz_product((2, 1, 0, 0), (1, 1, 1, 1)) == 1
    p = EnergyMomentum(2, (1, 0, 0))
    x = LatticePoint(1, (1, 1, 1))
    assert lorentz_product(p, x) == 1


def test_hyperboloid_m1_r1():
    points = hyperboloid(1, 1)
    assert [p.as_tuple() for p in points] == [(1, 0, 0, 0)]


def test_hyperboloid_m1_r2():
    points = [p.as_tuple() for p in hyperboloid(1, 2)]
    assert len(points) == 9
    assert points == brute_force_hyperboloid(1, 2)


def test_hyperboloid_m0_r1():
    points = [p.as_tuple() for p in hyperboloid(0, 1)]
    assert (0, 0, 0, 0) in points
    assert len(points) == 7
    assert points == brute_force_hyperboloid(0, 1)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("r", range(1, 5))
def test_hyperboloid_matches_brute_force(m, r):
    ours = [p.as_tuple() for p in hyperboloid(m, r)]
    assert ours == brute_force_hyperboloid(m, r)


def test_hyperboloid_einstein_relation():
    for m in range(4):
        for p in hyperboloid(m, 4):
            assert p.p0 * p.p0 == m * m + sum(c * c for c in p.p)


def test_hyperboloid_empty():
    assert hyperboloid(3, 2) == []


def test_phase_residues():
    p = EnergyMomentum(1, (0, 0, 0))
    for x0 in range(8):
        x = LatticePoint(x0)
        expected = {0: 1, 1: 1j, 2: -1, 3: -1j}[x0 % 4]
        assert phase(p, x) == expected


@settings(max_examples=60, deadline=None)
@given(
    p=st.tuples(st.integers(0, 5), *[st.integers(-5, 5)] * 3),
    x=st.tuples(st.integers(0, 5), *[st.integers(-5, 5)] * 3),
)
def test_phase_unit_modulus_and_residue_rule(p, x):
    z = phase(p, x)
    assert z * np.conj(z) == 1
    assert z == 1j ** (lorentz_product(p, x) % 4)


def test_space_volume_values():
    assert space_volume(0) == 1
    assert space_volume(1) == 7
    assert space_volume(2) == 33
    for x0 in range(5):
        assert space_volume(x0) == brute_force_volume(x0)


def test_space_volume_monotone_and_bounded():
    previous = 0
    for x0 in range(6):
        v = space_volume(x0)
        assert v >= previous
        assert v <= (2 * x0 + 1) ** 3
        previous = v


def grid_classes(x0):
    """The slice's 64 class counts from its points: each x1 plane of the
    (2·x0+1)³ grid, kept where |x| <= x0, binned by class 16 (x1 & 3) +
    4 (x2 & 3) + (x3 & 3)."""
    axis = np.arange(-x0, x0 + 1)
    x2, x3 = np.meshgrid(axis, axis, indexing="ij")
    counts = np.zeros(64, dtype=np.int64)
    for x1 in axis.tolist():
        ball = x1 * x1 + x2 * x2 + x3 * x3 <= x0 * x0
        classes = 16 * (x1 & 3) + 4 * (x2[ball] & 3) + (x3[ball] & 3)
        counts += np.bincount(classes, minlength=64)
    return counts


@pytest.mark.parametrize("x0", [*range(31), 60, 88])
def test_slice_classes_match_the_point_grid(x0):
    """Counting x3 per residue over the (x1, x2) disc gives the grid's
    class counts, and their sum is the volume."""
    counts = spacetime._slice_classes(x0)
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert np.array_equal(counts, grid_classes(x0))
    assert space_volume(x0) == counts.sum()


def test_slice_classes_reject_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        space_volume(-1)


def traced_peak(call):
    """call()'s result and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_space_volume_at_a_thousand_lists_no_point():
    """The slice at x0 = 1000 holds 4,188,781,437 points (the sum over
    (x1, x2) of 2 isqrt(x0^2 - x1^2 - x2^2) + 1); counting them by class
    stays far below the 100 GB a list of their coordinates would take."""
    spacetime._slice_classes.cache_clear()
    volume, peak = traced_peak(lambda: space_volume(1000))
    assert volume == 4_188_781_437
    assert peak < 16 * 2**20


def test_scatter_at_the_largest_x0_lists_no_point(tmp_path):
    """A scatter at r=1, s=2 on the x0 = 2047 slice, the largest the CLI
    accepts, traces under 16 MiB; the slice's 35,928,709,463 points as
    int64 rows would take 862 GB."""
    scenario = {
        "mass1": 1, "mass2": 1, "r": 1, "cutoff_s": 2, "x0": 2047,
        "in_state": {"modes": [[0, 1], [1, 1]]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    spacetime._slice_classes.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, peak = traced_peak(lambda: cli.main(["scatter", "--scenario", str(path)]))
    assert code == 0 and json.loads(out.getvalue())["kind"] == "scatter"
    assert peak < 16 * 2**20


def test_field_at_single_mode():
    roster = build_roster(1, 1, 1)
    space = build_space(roster, 2)
    phi = field_at(space, LatticePoint(0), 1, 1, mode_ids=[0])
    # one hyperboloid point, coefficient of unit modulus
    vac_row = phi.mat[0]
    assert np.isclose(np.abs(vac_row).max(), 1.0)


def test_field_at_coefficient_magnitudes():
    roster = build_roster(1, 1, 2)
    space = build_space(roster, 2)
    n1 = len(hyperboloid(1, 2))
    basis = space.basis
    # both blocks have mass 1: each block's ids move that block's modes only
    for ids in (range(n1), range(n1, 2 * n1)):
        phi = field_at(space, LatticePoint(0), 2, 1, mode_ids=ids)
        # vacuum row shows one amplitude per one-particle ket: 1/p0 each
        kets = np.flatnonzero(phi.mat[0])
        assert [basis[n].bosons[0][0] for n in kets] == list(ids)
        assert np.allclose(sorted(np.abs(phi.mat[0, kets])), [0.5] * 8 + [1.0])


def test_field_at_hermitian():
    roster = build_roster(1, 2, 2)
    space = build_space(roster, 2)
    for x in (LatticePoint(0), LatticePoint(3, (1, -2, 0))):
        phi = field_at(space, x, 2, 1, mode_ids=range(len(hyperboloid(1, 2))))
        assert np.array_equal(phi.mat, phi.mat.conj().T)


def test_field_at_massless_rejected():
    roster = build_roster(1, 1, 1)
    space = build_space(roster, 2)
    with pytest.raises(DivisionByZeroEnergy):
        field_at(space, LatticePoint(0), 1, 0, mode_ids=[0, 1])


def test_field_at_missing_mode():
    roster = build_roster(1, 1, 1)
    space = build_space(roster, 2)
    with pytest.raises(UnknownMode):
        field_at(space, LatticePoint(0), 2, 1, mode_ids=[0])


@pytest.mark.parametrize(
    "masses, ids, named",
    [
        ((1, 1), range(18), 9),  # both equal-mass blocks' ids
        ((1, 2), range(10), 9),  # the mass-2 mode among the mass-1 ids
        ((1, 1), [*range(9), 4], 4),  # a repeated id
    ],
    ids=["both-blocks", "other-mass", "repeated"],
)
def test_field_at_rejects_modes_beyond_the_shell(masses, ids, named):
    """The named modes must be the shell, one mode per point: a mode off
    it or a point named twice raises, naming the mode."""
    space = build_space(build_roster(*masses, 2), 1)
    with pytest.raises(UnknownMode, match=f"mode {named} is off the mass-1 shell at r=2"):
        field_at(space, LatticePoint(0), 2, 1, ids)


def test_field_at_names_a_missing_point_first():
    """Mode 9 repeats mode 0's point and no mode names point 8: the
    missing point is the error."""
    space = build_space(build_roster(1, 1, 2), 1)
    with pytest.raises(UnknownMode, match=r"no mass-1 mode with momentum \(2, 1, 1, 1\)"):
        field_at(space, LatticePoint(0), 2, 1, [*range(8), 9])


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        LatticePoint(-1)


def test_outside_forward_cone_rejected():
    with pytest.raises(ValueError):
        EnergyMomentum(1, (2, 0, 0))


# Locality on the period-4 lattice: one mass-1 boson block at s=2
@functools.cache
def boson_block(r):
    """(space, phi) for the block's modes: phi(x0, x) is its field_at."""
    n = len(hyperboloid(1, r))
    space = build_space(build_roster(1, 1, r)[:n], 2)
    return space, lambda x0, x: field_at(space, LatticePoint(x0, x), r, 1, range(n))


def bracket_below_cutoff(space, a, b):
    """max |[a, b]| over the rows and columns of kets with N < s."""
    low = space.occupations.sum(1) < space.cutoff_s
    return np.abs(commutator(a, b).mat[np.ix_(low, low)]).max()


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("mu", range(4))
def test_field_is_periodic_with_period_4(r, mu):
    """phase(p, x) depends on x only mod 4, so phi(x + 4 e_mu) is phi(x)
    bit for bit in every direction."""
    _, phi = boson_block(r)
    x = (1, 1, -2, 0)
    shifted = tuple(c + 4 * (k == mu) for k, c in enumerate(x))
    a, b = phi(x[0], x[1:]), phi(shifted[0], shifted[1:])
    for name in ("rows", "cols", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("r", [2, 3])
def test_equal_time_commutator_vanishes_below_the_cutoff(r):
    """At equal times the momenta p and (p0, -p) cancel in
    [phi(0, 0), phi(0, x)] on the kets below the cutoff."""
    space, phi = boson_block(r)
    origin = phi(0, (0, 0, 0))
    for x in itertools.product(range(-2, 3), repeat=3):
        assert bracket_below_cutoff(space, origin, phi(0, x)) <= 1e-14


@pytest.mark.parametrize("r, d, size", [(2, (1, -3, -3, -3), 2.0), (3, (1, -2, -3, 0), 26 / 9)])
def test_spacelike_commutator_need_not_vanish(r, d, size):
    """No light cone: at a spacelike separation d the commutator below
    the cutoff is far from 0 (every spacelike d has a timelike or null
    image mod 4)."""
    space, phi = boson_block(r)
    assert minkowski_sq(d) < 0
    got = bracket_below_cutoff(space, phi(0, (0, 0, 0)), phi(d[0], d[1:]))
    assert got == pytest.approx(size, abs=1e-12)


def fermion_block(r, s):
    """(space, phi) for one mass-1 fermion block, one species, at cutoff s."""
    n = len(hyperboloid(1, r))
    roster = build_roster(1, 1, r, Statistics.FERMION, Statistics.FERMION)[:n]
    space = build_space(roster, s)
    return space, lambda x0, x: field_at(space, LatticePoint(x0, x), r, 1, range(n))


@pytest.mark.parametrize("r, s", [(2, 3), (3, 2)])
def test_equal_time_fermion_anticommutator_is_a_c_number(r, s):
    """{a_p, a_q*} = delta_pq and {a_p, a_q} = 0 make {phi(0, 0), phi(0, x)}
    below the cutoff 2 Re sum_p c_p(0) conj(c_p(x)) times the identity,
    c_p(x) = phase(p, x) / p0; not 0 at equal times."""
    space, phi = fermion_block(r, s)
    low = space.occupations.sum(1) < space.cutoff_s
    origin = phi(0, (0, 0, 0))
    for x in itertools.product(range(-2, 3), repeat=3):
        size = 2 * sum(
            (phase(p, (0, 0, 0, 0)) * np.conj(phase(p, (0, *x)))).real / p.p0**2
            for p in hyperboloid(1, r)
        )
        got = anticommutator(origin, phi(0, x)).mat[np.ix_(low, low)]
        assert np.abs(got - size * np.eye(low.sum())).max() <= 1e-14
        if r == 2 and x == (1, 0, 0):
            assert size == 2.0
