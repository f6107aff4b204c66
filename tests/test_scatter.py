import itertools
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from toyqft import (
    LatticePoint,
    OccupationState,
    ParticleMode,
    Statistics,
    build_roster,
    build_space,
    commutator,
    eigh,
    field_at,
    hamiltonian,
    hamiltonian_density,
    hyperboloid,
    probability_table,
    scatter_column,
    scattering_operator,
    unitary_exp,
)
from toyqft import cli, scatter, spacetime
from toyqft.errors import CouplingTooLarge, EmptyRoster, UnknownMode
from toyqft.ladder import OperatorMatrix
from toyqft.scatter import _momentum_table, _slice_mask, _slice_table
from toyqft.spacetime import phase
from toyqft.spectral import _Rows, apply_unitary_exp

from conftest import ket

MAXABS = np.abs


def boson_space(m1=1, m2=1, r=1, s=2):
    roster = build_roster(m1, m2, r)
    return build_space(roster, s)


def slice_points(x0):
    """The spatial points {|x| <= x0} of the time-x0 slice as integer rows
    (x1, x2, x3), x1 slowest and x3 fastest, kept from the whole
    (2·x0+1)³ grid."""
    axis = np.arange(-x0, x0 + 1, dtype=np.int64)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    return x[(x * x).sum(1) <= x0 * x0]


def space_slice(x0):
    """Lattice points (x0, x) with |x| <= x0, in the slice's order."""
    return [LatticePoint(x0, tuple(x)) for x in slice_points(x0).tolist()]


def column(s, in_state):
    """S|in>: the in-state's column of a full scattering matrix."""
    return s.mat[:, s.space.index_of(in_state)]


def two_particle_in(space):
    """One mass-1 particle from each block, both at rest."""
    n1 = len(hyperboloid(space.modes[0].mass, 1))
    return OccupationState(bosons=((0, 1), (n1, 1)))


def test_build_roster_r1():
    roster = build_roster(1, 1, 1)
    assert len(roster) == 2
    assert all(m.momentum == (1, 0, 0, 0) for m in roster)
    assert roster[0].mass == roster[1].mass == 1


def test_build_roster_r2_counts():
    roster = build_roster(1, 1, 2)
    assert len(roster) == 18


def test_build_roster_statistics_and_ids():
    roster = build_roster(1, 2, 2, Statistics.FERMION, Statistics.BOSON)
    n1 = len(hyperboloid(1, 2))
    assert [m.id for m in roster] == list(range(len(roster)))
    assert all(m.statistics is Statistics.FERMION for m in roster[:n1])
    assert all(m.statistics is Statistics.BOSON for m in roster[n1:])


def test_build_roster_deterministic():
    a = build_roster(1, 1, 2)
    b = build_roster(1, 1, 2)
    assert [(m.id, m.label, m.momentum) for m in a] == [
        (m.id, m.label, m.momentum) for m in b
    ]


def test_build_roster_empty():
    with pytest.raises(EmptyRoster):
        build_roster(3, 1, 2)


def test_density_matches_two_mode_interaction():
    # r=1, s=2, both masses 1: single mode per block with |alpha| = 1,
    # so the density is the two-boson interaction with its known spectrum
    space = boson_space()
    tau = hamiltonian_density(space, LatticePoint(0), 1, 1, 1)
    pairs = eigh(tau).pairs()
    expected = [(-np.sqrt(2), 1), (-1.0, 1), (0.0, 2), (1.0, 1), (np.sqrt(2), 1)]
    assert [m for _, m in pairs] == [m for _, m in expected]
    assert np.allclose([v for v, _ in pairs], [v for v, _ in expected], atol=1e-9)


def test_density_hermitian_at_random_points(rng):
    space = boson_space(r=2, s=2)
    for _ in range(3):
        x = LatticePoint(int(rng.integers(0, 4)), tuple(rng.integers(-3, 4, 3)))
        tau = hamiltonian_density(space, x, 2, 1, 1)
        assert np.max(np.abs(tau.mat - tau.mat.conj().T)) <= 1e-12


def test_density_spectrum_translation_invariant():
    space = boson_space(r=2, s=2)
    w1 = np.linalg.eigvalsh(
        hamiltonian_density(space, LatticePoint(0), 2, 1, 1).mat
    )
    w2 = np.linalg.eigvalsh(
        hamiltonian_density(space, LatticePoint(2, (1, 0, -1)), 2, 1, 1).mat
    )
    assert np.max(np.abs(w1 - w2)) <= 1e-9


def test_hamiltonian_x0_zero_is_origin_density():
    space = boson_space()
    h = hamiltonian(space, 0, 1, 1, 1)
    tau = hamiltonian_density(space, LatticePoint(0), 1, 1, 1)
    assert np.array_equal(h.mat, tau.mat)


B, F = Statistics.BOSON, Statistics.FERMION
STATS = {"BB": (B, B), "FB": (F, B), "BF": (B, F), "FF": (F, F)}
SLICE_CASES = [
    (stats, masses, r, x0, None)
    for stats in STATS
    for masses in [(1, 1), (1, 2), (2, 1)]
    for r in (1, 2)
    for x0 in (0, 1, 2)
    if r >= max(masses)
] + [("FB", (1, 2), 2, 1, "extra"), ("FB", (1, 2), 2, 1, "labeled")]


@pytest.mark.parametrize(
    "stats, masses, r, x0, extra_mode",
    SLICE_CASES,
    ids=[
        f"{st}-m{m1}{m2}-r{r}-x{x0}" + (f"-{extra}" if extra else "")
        for st, (m1, m2), r, x0, extra in SLICE_CASES
    ],
)
def test_hamiltonian_averages_slice_densities(stats, masses, r, x0, extra_mode):
    m1, m2 = masses
    roster = build_roster(m1, m2, r, *STATS[stats])
    if extra_mode == "extra":
        # A mode no field moves, with no momentum label.
        roster.append(ParticleMode(len(roster), "spectator", B))
    elif extra_mode == "labeled":
        # A mode no field moves whose momentum does enter P.x on the slice.
        roster.append(ParticleMode(len(roster), "spectator", B, 1, (2, 1, 1, 1)))
    space = build_space(roster, 2)
    h = hamiltonian(space, x0, r, m1, m2)
    points = space_slice(x0)
    mean = sum(hamiltonian_density(space, x, r, m1, m2).mat for x in points)
    assert np.max(np.abs(h.mat - mean / len(points))) <= 1e-14
    # The dense formula: tau(0) times d d* / |slice| entry by entry, with
    # d[n, k] = i^(-P_n.x_k) and P_n ket n's labeled 4-momentum.
    tau = hamiltonian_density(space, LatticePoint(0), r, m1, m2)
    momenta, _ = _momentum_table(space)
    d = np.array([[phase(p, x) for x in points] for p in momenta.tolist()]).conj()
    assert np.array_equal(h.mat, tau.mat * (d @ d.conj().T / len(points)))


# (r, s) with every statistics' space at most dim 2,000: not r=3, s=3
BLOCK_CASES = [
    (stats, r, s, x0)
    for stats in ("BB", "FB", "BF")
    for r in (1, 2, 3)
    for s in (2, 3)
    for x0 in (0, 1, 2)
    if (r, s) != (3, 3)
]


@pytest.mark.parametrize(
    "stats, r, s, x0",
    BLOCK_CASES,
    ids=[f"{st}-r{r}-s{s}-x{x0}" for st, r, s, x0 in BLOCK_CASES],
)
def test_hamiltonian_block_is_full_h_on_kets(stats, r, s, x0):
    space = build_space(build_roster(1, 1, r, *STATS[stats]), s)
    assert space.dimension <= 2000
    full = hamiltonian(space, x0, r, 1, 1)
    parity = space.occupations.sum(1) % 2
    sizes = []
    for inside in (parity == 0, parity == 1, np.arange(space.dimension) % 3 == 0):
        block = hamiltonian(space, x0, r, 1, 1, np.flatnonzero(inside))
        keep = inside[full.rows] & inside[full.cols]
        assert np.array_equal(block.rows, full.rows[keep])
        assert np.array_equal(block.cols, full.cols[keep])
        assert block.data.tobytes() == full.data[keep].tobytes()
        sizes.append(len(block.data))
    # H keeps (-1)^N: the two parity blocks hold every entry
    assert sizes[0] + sizes[1] == len(full.data)


DENSITY_CASES = [(st, r, x0) for st in ("BB", "FB") for r in (1, 2, 3) for x0 in (0, 1, 2)]


@pytest.mark.parametrize(
    "stats, r, x0", DENSITY_CASES, ids=[f"{st}-r{r}-x{x0}" for st, r, x0 in DENSITY_CASES]
)
def test_hamiltonian_is_density_times_slice_mask(stats, r, x0):
    """The default call, entry for entry and bit for bit up to the sign
    of zeros (x + 0.0 turns -0.0 into 0.0 and keeps every other bit):
    tau(0) from interaction_field times the slice average of
    d_k[m] conj(d_k[n])."""
    space = build_space(build_roster(1, 1, r, *STATS[stats]), 2)
    tau = hamiltonian_density(space, LatticePoint(0), r, 1, 1)
    points = space_slice(x0)
    momenta, _ = _momentum_table(space)
    d = np.array([[phase(p, x) for p in momenta.tolist()] for x in points]).conj()
    mask = sum(dk[tau.rows] * dk[tau.cols].conj() for dk in d) / len(points)
    data = tau.data * mask
    keep = data != 0
    h = hamiltonian(space, x0, r, 1, 1)
    assert np.array_equal(h.rows, tau.rows[keep])
    assert np.array_equal(h.cols, tau.cols[keep])
    assert (h.data + 0.0).tobytes() == (data[keep] + 0.0).tobytes()


def _slice_mask_by_point(space, x0, rows, cols):
    """The slice mask counted one slice point at a time: per entry, the
    quarter turns (P_n - P_m).x mod 4 of each point, from the true
    difference of the two kets' spatial momenta."""
    points = slice_points(x0)
    momenta, _ = _momentum_table(space)
    d = momenta[cols, 1:] - momenta[rows, 1:]
    real = np.zeros(len(rows), dtype=np.int32)
    imag = np.zeros(len(rows), dtype=np.int32)
    for x in points:
        k = d @ x & 3
        real += k == 0
        real -= k == 2
        imag += k == 1
        imag -= k == 3
    # the ball is symmetric under x -> -x: the average is real
    assert not imag.any()
    return real * (1 / len(points))


@pytest.mark.parametrize("stats", ["BB", "FB"])
@pytest.mark.parametrize("x0", [0, 1, 2, 3])
def test_slice_mask_by_class_matches_per_point_count(stats, x0):
    """The 64-class real table read by XOR gives the per-point count bit
    for bit on any entries; it has no direction, so swapping rows and
    columns leaves its bytes as they are."""
    space = build_space(build_roster(1, 1, 2, *STATS[stats]), 2)
    rng = np.random.default_rng(x0)
    rows, cols = rng.integers(0, space.dimension, size=(2, 4000))
    mask = _slice_mask(space, x0, rows, cols)
    assert mask.dtype == np.float64
    assert mask.tobytes() == _slice_mask_by_point(space, x0, rows, cols).tobytes()
    assert _slice_mask(space, x0, cols, rows).tobytes() == mask.tobytes()


@pytest.mark.parametrize("x0", range(9))
def test_slice_table_matches_per_point_count(x0):
    """The table from the slice's residue classes mod 4 is the one from
    counting each slice point's quarter turns, bit for bit, and it is even
    in each component of d mod 4."""
    points = slice_points(x0)
    d = np.arange(64)[:, None] >> np.array([4, 2, 0]) & 3  # class k's d
    turns = points @ d.T & 3  # one row per point
    counts = np.array([np.bincount(t, minlength=4) for t in turns.T])
    assert np.array_equal(counts[:, 1], counts[:, 3])  # no imaginary part
    table = (counts[:, 0] - counts[:, 2]) * (1 / len(points))
    assert _slice_table(x0).tobytes() == table.tobytes()
    for axis in range(3):
        flipped = d.copy()
        flipped[:, axis] = -flipped[:, axis] & 3
        assert np.array_equal(table[flipped @ (16, 4, 1)], table)


GAUGE_CASES = [
    (stats, masses, r)
    for stats in STATS
    for masses in [(1, 1), (1, 2), (2, 1)]
    for r in (1, 2, 3)
    if r >= max(masses)
]
QUARTER_TURNS = np.array([1, 1j, -1, -1j])


@pytest.mark.parametrize(
    "stats, masses, r",
    GAUGE_CASES,
    ids=[f"{st}-m{m1}{m2}-r{r}" for st, (m1, m2), r in GAUGE_CASES],
)
def test_time_slice_is_a_gauge(stats, masses, r):
    """The ball |x| <= x0 is symmetric under x -> -x, so the mask at
    d = P_n - P_m is i^(x0 d0) R(d) with R real: H(x0) = D* H' D with
    D = diag(i^(x0 E_n)), E_n ket n's energy, and H' = tau(0) R real,
    exactly.  Where d is 0 mod 4 in space every slice point gives 1, so
    there H' is tau(0), which is H(0), bit for bit.  That pins the mask's
    direction: the conjugate mask is the gauge D, not D*, and moves the
    sign of the entries with odd x0 d0."""
    m1, m2 = masses
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), 2)
    momenta, _ = _momentum_table(space)
    tau = hamiltonian(space, 0, r, m1, m2)
    n = space.dimension
    tau_keys = tau.rows * n + tau.cols
    for x0 in range(6):
        h = hamiltonian(space, x0, r, m1, m2)
        d = QUARTER_TURNS[x0 * momenta[:, 0] % 4]
        gauged = d[h.rows] * h.data * d[h.cols].conj()
        assert not gauged.imag.any()
        at = tau_keys.searchsorted(h.rows * n + h.cols)
        assert np.array_equal(tau_keys[at], h.rows * n + h.cols)
        aligned = ((momenta[h.cols, 1:] - momenta[h.rows, 1:]) % 4 == 0).all(1)
        assert aligned.any()
        assert np.array_equal(gauged[aligned], tau.data[at][aligned])


CHIRAL_CASES = [
    (stats, masses, r, s)
    for stats in STATS
    for masses in [(1, 1), (1, 2), (2, 1)]
    for r, s in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
    if r >= max(masses)
]


@pytest.mark.parametrize(
    "stats, masses, r, s",
    CHIRAL_CASES,
    ids=[f"{st}-m{m1}{m2}-r{r}-s{s}" for st, (m1, m2), r, s in CHIRAL_CASES],
)
def test_hamiltonian_is_chiral(stats, masses, r, s):
    """Each term of {phi, psi} moves N_A, the count of block 0, by one:
    every entry of H joins kets of opposite N_A parity, so (-1)^N_A
    anticommutes with H and every probability is even in the coupling."""
    m1, m2 = masses
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), s)
    block_a = [m.id for m in space.modes if m.block == 0]
    n_a = space.occupations[:, block_a].sum(1)
    for x0 in range(3):
        h = hamiltonian(space, x0, r, m1, m2)
        assert len(h.data) and ((n_a[h.rows] + n_a[h.cols]) % 2 == 1).all()


@pytest.mark.parametrize("s", [2, 3])
def test_equal_mass_fermion_blocks_are_two_species(s):
    """The two fermion blocks of one mass are two species: at r=1 each
    is one mode at rest, the fields phi and psi commute, and H = phi psi,
    with phi^2 = psi^2 = 1, has eigenvalues -1, -1, 1, 1.  Were the
    blocks one species, the fields would anticommute and H would be 0."""
    space = build_space(build_roster(1, 1, 1, F, F), s)
    phi, psi = (field_at(space, LatticePoint(0), 1, 1, [i]) for i in (0, 1))
    assert len(commutator(phi, psi).data) == 0
    h = hamiltonian(space, 0, 1, 1, 1)
    assert np.array_equal(h.mat, (phi @ psi).mat)
    assert np.array_equal(np.linalg.eigvalsh(h.mat), [-1, -1, 1, 1])


@pytest.mark.parametrize("x0", [1, 2])
def test_scattering_is_reciprocal(x0):
    """P(a -> b) = P(b -> a) among the flagship and three moving
    catalog in-states: H = D* H' D with H' real symmetric, so S = D* S' D
    with S' symmetric."""
    space = boson_space(r=2, s=3)
    kets = [ket(space, a, b) for a, b in ((0, 9), (5, 16), (1, 14), (6, 12))]
    h = hamiltonian(space, x0, 2, 1, 1)
    block = np.empty((4, 4))
    for row, n_in in enumerate(kets):
        e_in = np.zeros(space.dimension, dtype=complex)
        e_in[n_in] = 1
        block[row] = np.abs(apply_unitary_exp(h, e_in)[kets]) ** 2
    assert (block > 1e-6).all()
    assert np.abs(block - block.T).max() <= 1e-15


# (stats, masses, r, s, x0): every statistics pair, r 1-3 and x0 0-3
CUBIC_CASES = [
    ("BB", (1, 1), 1, 3, 1),
    ("BB", (1, 1), 2, 2, 1),
    ("BB", (1, 1), 2, 3, 2),
    ("BB", (1, 1), 3, 2, 1),
    ("FB", (1, 2), 2, 2, 3),
    ("FB", (1, 2), 3, 2, 1),
    ("BF", (2, 1), 2, 3, 2),
    ("BF", (1, 1), 3, 2, 3),
    ("FF", (1, 1), 1, 2, 0),
    ("FF", (1, 1), 2, 2, 1),
    ("FF", (1, 2), 2, 3, 2),
    ("FF", (2, 1), 3, 2, 0),
]


def cubic_images(space):
    """For each of the 48 signed permutations g of the spatial axes, the
    ket g n of every ket n: g maps mode (block, (p0, p)) to (block, (p0,
    g p)) and each ket's counts with it."""
    index = {(mode.block, mode.momentum): mode.id for mode in space.modes}
    for axes in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            image = [
                index[mode.block, (mode.momentum[0], *(
                    sign * mode.momentum[1 + axis] for axis, sign in zip(axes, signs)
                ))]
                for mode in space.modes
            ]
            rows = np.empty_like(space.occupations)
            rows[:, image] = space.occupations
            kets = space.find_rows(rows)
            assert (kets >= 0).all()
            yield kets


@pytest.mark.parametrize(
    "stats, masses, r, s, x0",
    CUBIC_CASES,
    ids=[f"{st}-m{m1}{m2}-r{r}-s{s}-x{x0}" for st, (m1, m2), r, s, x0 in CUBIC_CASES],
)
def test_scattering_is_cubic_covariant(stats, masses, r, s, x0):
    """The 48 signed permutations of the spatial axes map each mass shell
    and the slice |x| <= x0 to themselves and keep 1/p0, so they commute
    with H (up to CAR signs, which |amplitude|^2 drops): P(n -> m) =
    P(gn -> gm) for a seeded in-state n and every out-state m."""
    m1, m2 = masses
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), s)
    h = hamiltonian(space, x0, r, m1, m2)
    rng = np.random.default_rng([r, s, x0])
    n_in = int(rng.integers(1, space.dimension))

    def probabilities(n):
        e_in = np.zeros(space.dimension, dtype=complex)
        e_in[n] = 1
        return np.abs(apply_unitary_exp(h, e_in)) ** 2

    expected = probabilities(n_in)
    columns = {}  # by in-ket: g n is n itself for g in n's stabilizer
    for g in cubic_images(space):
        n = int(g[n_in])
        if n not in columns:
            columns[n] = probabilities(n)
        assert np.abs(columns[n][g] - expected).max() <= 1e-15


@pytest.mark.parametrize("s", [2, 3])
def test_scattering_h_is_a_spectator_union(s):
    """At x0=0 the slice is one point, so H = 3 X_A X_B at r=2, with X =
    a + a* of each block's collective mode sum_p a(p) / (p0 sqrt 3)
    (1 + 8/4 = 3).  The 16 other modes are spectators: with k particles
    there the collective modes have budget b = s - k, where H is 3 times
    the r=1 Hamiltonian at cutoff b (0 for b = 0), repeated once per
    spectator ket, C(15 + k, k) times."""
    expected = []
    for b in range(s + 1):
        values = [0.0]  # budget 0: the vacuum
        if b:
            r1 = hamiltonian(build_space(build_roster(1, 1, 1), b), 0, 1, 1, 1)
            values = 3 * np.linalg.eigvalsh(r1.mat)
        expected += list(values) * math.comb(15 + s - b, s - b)
    h = hamiltonian(build_space(build_roster(1, 1, 2), s), 0, 2, 1, 1)
    values = np.linalg.eigvalsh(h.mat)
    assert len(values) == len(expected)
    assert np.abs(values - np.sort(expected)).max() <= 1e-12


def test_hamiltonian_rejects_empty_mass_block():
    space = boson_space()
    with pytest.raises(EmptyRoster, match="mass-1 hyperboloid empty for r=0"):
        hamiltonian(space, 0, 0, 1, 1)
    with pytest.raises(EmptyRoster, match="mass-2 hyperboloid empty for r=1"):
        hamiltonian_density(space, LatticePoint(0), 1, 1, 2)


def test_hamiltonian_rejects_blocks_of_another_shell():
    """r, m1 and m2 must name the roster's blocks: block 0 of an r=3
    roster holds the r=2 shell and more, and block 1 has no mass 2."""
    space = boson_space(r=3, s=1)
    with pytest.raises(UnknownMode, match="mode 9 is off the mass-1 shell at r=2"):
        hamiltonian(space, 0, 2, 1, 1)
    with pytest.raises(UnknownMode, match="no mass-2 mode"):
        hamiltonian_density(space, LatticePoint(0), 3, 1, 2)


def test_hamiltonian_norm_contraction():
    space = boson_space(r=2)
    h = hamiltonian(space, 1, 2, 1, 1)
    worst = max(
        np.linalg.norm(
            hamiltonian_density(space, LatticePoint(1, x), 2, 1, 1).mat, 2
        )
        for x in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert np.linalg.norm(h.mat, 2) <= worst + 1e-12


def test_scattering_operator_of_zero():
    space = boson_space()
    h = OperatorMatrix(space, np.zeros((space.dimension,) * 2, dtype=complex))
    s = scattering_operator(h)
    assert np.max(np.abs(s.mat - np.eye(space.dimension))) <= 1e-12


def test_scattering_inverse_phase():
    space = boson_space()
    h = hamiltonian(space, 0, 1, 1, 1)
    s_fwd = scattering_operator(h)
    s_bwd = scattering_operator(-1.0 * h)
    assert np.max(np.abs((s_fwd @ s_bwd).mat - np.eye(space.dimension))) <= 1e-9


def test_scattering_unitary_and_circle():
    space = boson_space(r=2, s=3)
    h = hamiltonian(space, 1, 2, 1, 1)
    s = scattering_operator(h)
    assert np.max(np.abs(s.mat.conj().T @ s.mat - np.eye(space.dimension))) <= 1e-9
    assert np.max(np.abs(np.abs(np.linalg.eigvals(s.mat)) - 1.0)) <= 1e-9


def test_coupling_scales_phase():
    space = boson_space()
    h = hamiltonian(space, 0, 1, 1, 1)
    s_half = scattering_operator(h, coupling=0.5)
    assert np.max(np.abs((s_half @ s_half).mat - scattering_operator(h).mat)) <= 1e-9


def test_probability_rows_sum_to_one():
    space = boson_space(r=2, s=2)
    s = scattering_operator(hamiltonian(space, 1, 2, 1, 1))
    total = np.sum(np.abs(column(s, two_particle_in(space))) ** 2)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_probability_table_identity():
    space = boson_space()
    s = OperatorMatrix(space, np.eye(space.dimension, dtype=complex))
    state_in = two_particle_in(space)
    kets, probs, conserves = probability_table(
        space, column(s, state_in), space.index_of(state_in)
    )
    assert kets.dtype.kind == "i" and probs.dtype == np.float64
    assert kets.tolist() == [space.index_of(state_in)]
    assert probs.tolist() == [pytest.approx(1.0)]
    assert conserves == [True] and conserves[0] is True


def test_probability_table_sorted_and_bounded():
    space = boson_space(r=2, s=2)
    s = scattering_operator(hamiltonian(space, 0, 2, 1, 1))
    state_in = two_particle_in(space)
    _, probs, _ = probability_table(
        space, column(s, state_in), space.index_of(state_in), threshold=1e-12
    )
    probs = probs.tolist()
    keys = [rounded(p) for p in probs]
    assert keys == sorted(keys, reverse=True)
    assert sum(probs) <= 1 + 1e-9


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1e-300])
def test_probability_table_threshold_must_be_finite_and_nonnegative(threshold):
    """A NaN threshold would keep no row: the table would be empty."""
    space = boson_space(r=2, s=2)
    state_in = two_particle_in(space)
    n_in = space.index_of(state_in)
    amplitudes = np.zeros(space.dimension, dtype=complex)
    amplitudes[n_in] = 1
    with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
        probability_table(space, amplitudes, n_in, threshold=threshold)


def test_probability_table_conservation_filter():
    space = boson_space(r=2, s=2)
    s = scattering_operator(hamiltonian(space, 0, 2, 1, 1))
    state_in = two_particle_in(space)
    kept, _, _ = probability_table(
        space, column(s, state_in), space.index_of(state_in), enforce_conservation=True
    )
    momenta, _ = _momentum_table(space)
    p_in = momenta[space.index_of(state_in)]
    for n in kept:
        assert np.array_equal(momenta[n], p_in)


def rounded(p):
    """p to 36 significant bits: probability_table's sort key."""
    mantissa, exponent = math.frexp(p)
    return math.ldexp(round(mantissa * 2**36), exponent - 36)


def reference_table(s, in_state, threshold, enforce):
    """probability_table ket by ket: (index, probability, flag) rows."""
    space = s.space

    def momentum(state):
        occupied = [m for m in space.modes if state.count_of(m.id)]
        if any(m.momentum is None for m in occupied):
            return None
        return tuple(sum(state.count_of(m.id) * m.momentum[k] for m in occupied) for k in range(4))

    rows = []
    for n, out in enumerate(space.basis):
        prob = abs(s.mat[n, space.index_of(in_state)]) ** 2
        p_in, p_out = momentum(in_state), momentum(out)
        flag = None if p_in is None or p_out is None else p_out == p_in
        if prob > threshold and not (enforce and flag is False):
            rows.append((n, prob, flag))
    return sorted(rows, key=lambda row: (-rounded(row[1]), row[0]))


@pytest.mark.parametrize("unitary", ["random", "scattering"])
@pytest.mark.parametrize("enforce", [False, True])
@pytest.mark.parametrize("threshold", [0.0, 1e-3])
@pytest.mark.parametrize("in_modes", [(), ((0, 1), (9, 1)), ((9, 1), (10, 1))])
def test_probability_table_matches_ket_by_ket(in_modes, threshold, enforce, unitary):
    # Fermion block, boson block, then an unlabeled boson spectator (10).
    # A random unitary reaches out-states that occupy the spectator; the
    # scattering operator gives many exactly tied probabilities.
    roster = build_roster(1, 2, 2, F, B)
    roster.append(ParticleMode(len(roster), "spectator", B))
    space = build_space(roster, 2)
    if unitary == "random":
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2, space.dimension, space.dimension))
        s = OperatorMatrix(space, np.linalg.qr(z[0] + 1j * z[1])[0])
    else:
        s = scattering_operator(hamiltonian(space, 1, 2, 1, 2))
    fermions = tuple(m for m, _ in in_modes if m < 9)
    in_state = OccupationState(fermions, tuple(p for p in in_modes if p[0] >= 9))
    kets, probs, conserves = probability_table(
        space, column(s, in_state), space.index_of(in_state), threshold,
        enforce_conservation=enforce,
    )
    got = list(zip(kets.tolist(), conserves))
    expected = reference_table(s, in_state, threshold, enforce)
    assert got == [(n, flag) for n, _, flag in expected]
    assert np.allclose(probs, [p for _, p, _ in expected], rtol=0, atol=1e-15)
    flags = {flag for _, flag in got}
    if unitary == "random":
        assert flags == ({None} if 10 in dict(in_modes) else {True, None} if enforce else {True, False, None})


def test_probability_table_lists_ties_in_ket_order():
    """Probabilities one rounding apart, as ties of exact arithmetic come
    out of floating point, are listed by ascending ket."""
    space = boson_space()
    amplitudes = np.zeros(space.dimension, dtype=complex)
    amplitudes[[0, 2, 4, 5]] = 0.6, 0.5, np.nextafter(0.5, 1), 0.1j
    kets, probs, _ = probability_table(
        space, amplitudes, space.index_of(two_particle_in(space))
    )
    assert kets.tolist() == [0, 2, 4, 5]
    assert probs[1] < probs[2]


# (m1, m2, r, s, x0, statistics) of every scatter class in the benchmark's
# mix_small workload (benchmarks/workloads.py), dims 6 to 190.
MIX_SMALL_SCATTERS = [
    (1, 1, 1, 2, 0, "BB"),
    (1, 1, 1, 3, 1, "BB"),
    (1, 1, 1, 2, 2, "BB"),
    (1, 2, 2, 2, 1, "BB"),
    (1, 2, 2, 2, 1, "FB"),
    (2, 1, 2, 2, 2, "BF"),
    (1, 2, 2, 3, 0, "FB"),
    (1, 1, 2, 2, 0, "BB"),
    (1, 1, 2, 2, 1, "BB"),
    (1, 1, 2, 2, 2, "BB"),
]


@pytest.mark.parametrize("coupling", [1.0, -0.5, 30.0])
@pytest.mark.parametrize(
    "m1, m2, r, s, x0, stats",
    MIX_SMALL_SCATTERS,
    ids=[f"{st}-m{m1}{m2}-r{r}-s{s}-x{x0}" for m1, m2, r, s, x0, st in MIX_SMALL_SCATTERS],
)
def test_exp_action_matches_dense_column(m1, m2, r, s, x0, stats, coupling):
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), s)
    h = hamiltonian(space, x0, r, m1, m2)
    n_in = ket(space, 0, len(hyperboloid(m1, r)))  # one particle per block
    e_in = np.zeros(space.dimension, dtype=complex)
    e_in[n_in] = 1
    column = apply_unitary_exp(h, e_in, coupling)
    expected = scattering_operator(h, coupling).mat[:, n_in]
    assert np.max(np.abs(column - expected)) <= 1e-12
    assert abs(np.linalg.norm(column) - 1) <= 1e-12


# r=1 and r=2 at s <= 3 with both blocks of mass 1, but at r=2, s=3 block
# 1 is the one-mode mass-2 shell: 286 kets, not 1,330, for the dense S
COLUMN_SHAPES = [((1, 2) if (r, s) == (2, 3) else (1, 1), r, s) for r in (1, 2) for s in (1, 2, 3)]


@pytest.mark.parametrize("stats", ["BB", "FB", "BF"])
@pytest.mark.parametrize("x0", [0, 1, 2])
@pytest.mark.parametrize(
    "masses, r, s", COLUMN_SHAPES, ids=[f"m{m1}{m2}-r{r}-s{s}" for (m1, m2), r, s in COLUMN_SHAPES]
)
def test_scatter_column_is_the_dense_column(masses, r, s, x0, stats):
    """S|in> from the in-ket's sector alone is the full dense S's column,
    for the vacuum, a particle in either block, one particle per block
    (s >= 2) and the last ket, at g = 1 and -0.5."""
    m1, m2 = masses
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), s)
    h = hamiltonian(space, x0, r, m1, m2)
    block1 = len(hyperboloid(m1, r))
    kets = [0, 1, ket(space, block1), space.dimension - 1]
    kets += [ket(space, 0, block1)] if s > 1 else []
    for coupling in (1.0, -0.5):
        dense = scattering_operator(h, coupling).mat
        for n_in in kets:
            column = scatter_column(space, x0, r, m1, m2, n_in, coupling)
            assert np.max(np.abs(column - dense[:, n_in])) <= 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_scatter_column_refuses_a_coupling_past_the_bound(monkeypatch, sign):
    """|g|·‖H‖₁ on the in-ket's sector just past COUPLING_BOUND raises
    CouplingTooLarge with that scale before any product; just under it
    runs."""
    space = boson_space()
    n_in = ket(space, 0, 1)
    even = np.flatnonzero(space.occupations.sum(1) % 2 == 0)
    norm = hamiltonian(space, 0, 1, 1, 1, even).one_norm()
    under = sign * scatter.COUPLING_BOUND / norm * (1 - 1e-9)
    column = scatter_column(space, 0, 1, 1, 1, n_in, under)
    assert abs(np.linalg.norm(column) - 1) <= 1e-9

    def unreachable(*args):
        raise AssertionError("exp action started past the coupling bound")

    monkeypatch.setattr(scatter, "apply_unitary_exp", unreachable)
    over = sign * scatter.COUPLING_BOUND / norm * (1 + 1e-9)
    with pytest.raises(CouplingTooLarge) as raised:
        scatter_column(space, 0, 1, 1, 1, n_in, over)
    assert raised.value.scale == abs(over) * norm > scatter.COUPLING_BOUND


def block_in_state(space, m1, r):
    """e_in for the in-state with one particle in each mass block."""
    n_in = ket(space, 0, len(hyperboloid(m1, r)))
    e_in = np.zeros(space.dimension, dtype=complex)
    e_in[n_in] = 1
    return e_in


@pytest.mark.parametrize(
    "m1, m2, r, s, x0, stats",
    MIX_SMALL_SCATTERS + [(1, 1, 2, 3, 0, "BB")],
    ids=[f"{st}-m{m1}{m2}-r{r}-s{s}-x{x0}" for m1, m2, r, s, x0, st in MIX_SMALL_SCATTERS]
    + ["deep"],
)
def test_exp_action_stays_in_parity_sector(m1, m2, r, s, x0, stats):
    """H changes the particle number by 0 or 2, so the two-particle
    in-state reaches only even-N kets and every odd-N amplitude is
    exactly 0, also when the series runs on the full H."""
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), s)
    h = hamiltonian(space, x0, r, m1, m2)
    e_in = block_in_state(space, m1, r)
    odd = space.occupations.sum(1) % 2 == 1
    assert not apply_unitary_exp(h, e_in, 1.0)[odd].any()


def test_exp_action_reaches_every_even_ket_at_r2_s3():
    """H's block on the even-N kets at r=2, s=3, x0=0 has entries in
    exactly 172 kets (1 vacuum + 171 two-particle kets); the column from
    that block is nonzero on each of them and exactly 0 on every other."""
    space = build_space(build_roster(1, 1, 2), 3)  # dim 1,330
    even = np.flatnonzero(space.occupations.sum(1) % 2 == 0)
    block = hamiltonian(space, 0, 2, 1, 1, even)
    touched = np.zeros(space.dimension, dtype=bool)
    touched[block.rows] = touched[block.cols] = True
    assert touched.sum() == 172
    column = apply_unitary_exp(block, block_in_state(space, 1, 2))
    assert column[touched].all()
    assert not column[~touched].any()


def test_block_column_is_the_scatter_column():
    """At r=3, s=2, x0=1 the series on H's block on the in-ket's (-1)^N
    kets gives `scatter_column` bit for bit.  The full H holds both
    parities, so its bound differs and its column agrees within 1e-12."""
    space = build_space(build_roster(1, 1, 3), 2)
    e_in = block_in_state(space, 1, 3)
    parity = space.occupations.sum(1) % 2
    block = hamiltonian(space, 1, 3, 1, 1, np.flatnonzero(parity == 0))
    full = hamiltonian(space, 1, 3, 1, 1)
    column = apply_unitary_exp(block, e_in)
    (n_in,) = np.flatnonzero(e_in)
    assert column.tobytes() == scatter_column(space, 1, 3, 1, 1, n_in).tobytes()
    assert np.max(np.abs(column - apply_unitary_exp(full, e_in))) <= 1e-12


@pytest.mark.parametrize("masses, shells", [((1, 1), [(1, 2)]), ((1, 2), [(1, 2), (2, 2)])])
def test_scatter_op_builds_each_shell_once(tmp_path, capsys, masses, shells):
    """One scatter op at r=2, s=2, x0=1 builds each cached mass shell
    once: the size budget, the roster and `field_at` share it, and the
    two blocks of equal mass share one."""
    scenario = {
        "mass1": masses[0], "mass2": masses[1], "r": 2, "cutoff_s": 2, "x0": 1,
        "in_state": {"modes": [[0, 1], [9, 1]]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    built = []
    real_hyperboloid = spacetime.hyperboloid

    def hyperboloid(m, r):
        built.append((m, r))
        return real_hyperboloid(m, r)

    spacetime._shell.cache_clear()
    with mock.patch.object(spacetime, "hyperboloid", hyperboloid):
        assert cli.main(["scatter", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"]
    assert built == shells


@pytest.mark.parametrize("coupling", [1.0, -0.5, 30.0])
def test_exp_action_of_both_parities_matches_dense(coupling):
    space = build_space(build_roster(1, 1, 2), 2)
    h = hamiltonian(space, 1, 2, 1, 1)
    v = block_in_state(space, 1, 2)
    v[[1, 5]] = 0.5j, -0.25  # one-particle kets
    expected = unitary_exp(eigh(coupling * h)) @ v
    assert np.max(np.abs(apply_unitary_exp(h, v, coupling) - expected)) <= 1e-12


@pytest.mark.parametrize(
    "m1, m2, r, s, x0, stats",
    MIX_SMALL_SCATTERS + [(1, 2, 2, 3, 0, "BB")],
    ids=[f"{st}-m{m1}{m2}-r{r}-s{s}-x{x0}" for m1, m2, r, s, x0, st in MIX_SMALL_SCATTERS]
    + ["BB-m12-r2-s3-x0"],
)
def test_exp_bound_between_spectral_radius_and_one_norm(m1, m2, r, s, x0, stats):
    """For H's block on the even-N kets and for the full H, the
    Collatz–Wielandt bound is at least the spectral radius of that H and
    at most its ||H||_1 (up to rounding).  At r=1, |H| on the even block
    is periodic, and power steps on |H| alone stay at the largest row sum
    1 + sqrt(2) at s=2 (1 + 2 sqrt(2) at s=3); the steps on |H| + I come
    within 2% and 4% of rho = sqrt(2) and sqrt(5)."""
    space = build_space(build_roster(m1, m2, r, *STATS[stats]), s)
    even = np.flatnonzero(space.occupations.sum(1) % 2 == 0)
    block = hamiltonian(space, x0, r, m1, m2, even)
    for h in (block, hamiltonian(space, x0, r, m1, m2)):
        bound = _Rows(h).bound()
        radius = np.abs(np.linalg.eigvalsh(h.mat)).max()
        assert radius <= bound * (1 + 1e-12)
        assert bound <= h.one_norm() * (1 + 1e-12)
    if r == 1:
        assert _Rows(block).bound() < {2: 1.5, 3: 2.4}[s]


def test_readme_example_runs():
    """The README's Python example runs on the current API and gives the
    P(vacuum) at s=2 that the README quotes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    quoted = float(re.search(r"P\(vacuum\) is ([0-9.]+) at s=2", readme)[1])
    scope = {}
    exec(example, scope)
    vacuum_ket = scope["space"].index_of(OccupationState())
    (vacuum,) = scope["probabilities"][scope["kets"] == vacuum_ket]
    assert round(vacuum, 3) == quoted == 0.287
