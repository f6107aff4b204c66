import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from toyqft import (
    eigh,
    free_field,
    interaction_field,
    projectors,
    reconstruct,
    self_interaction,
    unitary_exp,
)
from toyqft.errors import NotHermitian
from toyqft.spectral import (
    BESSEL_TOL,
    HERMITICITY_TOL,
    _bessel_orders,
    _group_bounds,
    _canonical_phase,
    apply_unitary_exp,
    grouped_union,
)

from conftest import generic_coeffs, k_space, l_space


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_identity_single_group():
    decomp = eigh(np.eye(5, dtype=complex))
    assert decomp.pairs() == [(1.0, 5)]


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite(bad):
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(NotHermitian):
        eigh(h)


def test_k2_field_grouping(rng):
    space = k_space(2)
    alpha, beta = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, alpha), (1, beta)])
    om = np.hypot(abs(alpha), abs(beta))
    pairs = eigh(phi).pairs()
    assert [m for _, m in pairs] == [2, 2]
    assert np.allclose([v for v, _ in pairs], [-om, om], rtol=1e-10)


def test_groups_sorted_ascending(rng):
    decomp = eigh(random_hermitian(rng, 9))
    values = decomp.eigenvalues
    assert values == sorted(values)
    assert sum(decomp.multiplicities) == 9


def test_group_vectors_orthonormal(rng):
    decomp = eigh(random_hermitian(rng, 8))
    all_vecs = np.hstack([g.vectors for g in decomp.groups])
    gram = all_vecs.conj().T @ all_vecs
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-10


def test_group_residuals(rng):
    h = random_hermitian(rng, 7)
    decomp = eigh(h)
    for g in decomp.groups:
        res = h @ g.vectors - g.value * g.vectors
        assert np.max(np.abs(res)) <= 1e-9


def _planted(rng, values):
    """Hermitian matrix with the given eigenvalues, repeats included."""
    shape = (len(values),) * 2
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    m = (q * np.array(values)) @ q.conj().T
    return (m + m.conj().T) / 2


def test_group_vectors_match_phase_per_group(rng):
    """Phasing every eigenvector at once gives each group's vectors bit
    for bit as phasing that group's columns alone."""
    space = l_space(2, 4, 3)
    phi = free_field(space, [(1, 0.7 - 0.2j), (4, -1.1 + 0.4j)])
    for h in (
        self_interaction(phi).mat,
        _planted(rng, [-1.5] * 3 + [0.25] * 4 + [0.0] + [2.0] * 2 + [3.5] * 5),
    ):
        decomp = eigh(h)
        _, v = np.linalg.eigh(h)
        assert max(decomp.multiplicities) >= 3
        start = 0
        for g in decomp.groups:
            k = start + g.multiplicity
            assert np.array_equal(g.vectors, _canonical_phase(v[:, start:k]))
            assert g.vectors.tobytes() == _canonical_phase(v[:, start:k]).tobytes()
            start = k
        assert start == len(v)


def test_canonical_phase(rng):
    decomp = eigh(random_hermitian(rng, 6))
    for g in decomp.groups:
        for k in range(g.multiplicity):
            col = g.vectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert pivot.imag == pytest.approx(0, abs=1e-12)
            assert pivot.real > 0


def test_projector_algebra(rng):
    decomp = eigh(random_hermitian(rng, 9))
    ps = projectors(decomp)
    total = sum(ps)
    assert np.max(np.abs(total - np.eye(9))) <= 1e-10
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            expected = p if i == j else np.zeros_like(p)
            assert np.max(np.abs(p @ q - expected)) <= 1e-10


def test_projector_rank_is_multiplicity(rng):
    space = k_space(3)
    alpha, beta = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, alpha), (1, beta)])
    decomp = eigh(phi)
    for g, p in zip(decomp.groups, projectors(decomp)):
        assert np.trace(p).real == pytest.approx(g.multiplicity, abs=1e-9)


def test_reconstruct_zero():
    assert np.max(np.abs(reconstruct(eigh(np.zeros((3, 3)))))) == 0


def test_reconstruct_diagonal_exact():
    d = np.diag([1.0, 2.0, 2.0, 5.0]).astype(complex)
    assert np.max(np.abs(reconstruct(eigh(d)) - d)) <= 1e-12


def test_reconstruct_round_trip():
    space = k_space(3)
    phi = free_field(space, [(0, 0.7 + 0.3j), (1, -0.4 + 0.9j)])
    rebuilt = reconstruct(eigh(phi))
    err = np.linalg.norm(rebuilt - phi.mat) / np.linalg.norm(phi.mat)
    assert err <= 1e-9


def test_unitary_exp_zero_is_identity():
    u = unitary_exp(eigh(np.zeros((4, 4))))
    assert np.max(np.abs(u - np.eye(4))) <= 1e-12


def test_unitary_exp_scalar():
    u = unitary_exp(eigh(np.pi * np.eye(3)))
    assert np.max(np.abs(u + np.eye(3))) <= 1e-12


def test_unitary_exp_unitarity(rng):
    h = random_hermitian(rng, 13)
    u = unitary_exp(eigh(h))
    assert np.max(np.abs(u.conj().T @ u - np.eye(13))) <= 1e-9


def test_unitary_exp_phase_shift(rng):
    # exp(i(H + cI)) = e^{ic} exp(iH)
    h = random_hermitian(rng, 6)
    c = 0.7321
    lhs = unitary_exp(eigh(h + c * np.eye(6)))
    rhs = np.exp(1j * c) * unitary_exp(eigh(h))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_spectral_sums_match_projector_sums(rng):
    q, _ = np.linalg.qr(random_hermitian(rng, 7))
    h = q @ np.diag([-3.0, 1.0, 1.0, 2.0, 2.0, 2.0, 4.5]) @ q.conj().T
    decomp = eigh(h)
    assert decomp.multiplicities == [1, 2, 3, 1]
    ps = projectors(decomp)
    for spectral_sum, f in [(reconstruct, lambda v: v),
                            (unitary_exp, lambda v: np.exp(1j * v))]:
        expected = sum(f(g.value) * p for g, p in zip(decomp.groups, ps))
        assert np.max(np.abs(spectral_sum(decomp) - expected)) <= 1e-12


def test_degenerate_grouping_merges():
    h = np.diag([1.0, 1.0 + 1e-12, 3.0]).astype(complex)
    assert eigh(h).pairs()[0][1] == 2


def test_grouped_union_groups_as_eigh_does():
    """Values with counts group as their copies would in `eigh`: the gaps
    decide, and a group's value is its count-weighted mean."""
    h = np.diag([1.0, 1.0, 1.0 + 1e-12, 3.0, 3.0]).astype(complex)
    got = grouped_union([3.0, 1.0, 1.0 + 1e-12], [2, 2, 1])
    assert [m for _, m in got] == [m for _, m in eigh(h).pairs()] == [3, 2]
    assert got[0][0] == pytest.approx((2 * 1.0 + (1.0 + 1e-12)) / 3, abs=1e-15)
    assert got[1] == (3.0, 2)
    # gap 0.5 against 0.4 times the spectral radius 1.5
    assert grouped_union([1.0, 1.5], [1, 1], group_tol=0.4) == [(1.25, 2)]


@pytest.mark.parametrize("group_tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_group_tol_must_be_finite_and_positive(group_tol):
    """`eigh` and `grouped_union` share one check.  A plain comparison
    lets NaN and inf through, and they group 1 and 2 into one value."""
    with pytest.raises(ValueError, match="group_tol must be finite and positive"):
        eigh(np.diag([1.0, 2.0]), group_tol)
    with pytest.raises(ValueError, match="group_tol must be finite and positive"):
        grouped_union([1, 1, 2], [1, 2, 1], group_tol)


def test_grouped_union_stays_finite_as_eigh_does():
    """A group whose copies sum past the largest float keeps a finite
    value, its mean, in `grouped_union` and in `eigh`; up to the largest
    float itself.  The gap from -big to big overflows to inf, which
    splits the two values, with no warning."""
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grouped_union([1e308], [2]) == [(1e308, 2)]
        assert grouped_union([big / 2, big], [1, 1], group_tol=1.0) == [(0.75 * big, 2)]
        assert grouped_union([-big, big], [3, 5]) == [(-big, 3), (big, 5)]
        assert eigh(np.diag([1e308, 1e308]).astype(complex)).pairs() == [(1e308, 2)]
        assert [m for _, m in eigh(np.diag([-big, big]).astype(complex)).pairs()] == [1, 1]


def test_grouped_union_mean_is_the_plain_mean_where_finite(rng):
    """Where Σ count·value / Σ count is finite, the group value is that
    quotient bit for bit, at any scale."""
    for scale in (1e-300, 1.0, 1e300):
        values = rng.normal(size=40) * scale
        values[::4] = values[1::4]  # some equal values, one group each
        counts = rng.integers(1, 1000, size=40)
        got = grouped_union(values, counts, group_tol=1e-3)
        order = np.argsort(values, kind="stable")
        w, m = values[order], counts[order]
        starts = _group_bounds(w, 1e-3)[:-1]
        plain = np.add.reduceat(w * m, starts) / np.add.reduceat(m, starts)
        assert np.array([v for v, _ in got]).tobytes() == plain.tobytes()


def test_hermiticity_is_checked_relative_to_the_largest_entry():
    """A product of fields with alphas near 1e9 is Hermitian up to
    rounding of its 1e18 entries and is decomposed; an asymmetry of 1e-6
    of the largest entry is still refused."""
    space = l_space(1, 2, 3)
    phi = free_field(space, [(1, 1e9 * (1 + 0.3j)), (0, 2e9)])
    psi = free_field(space, [(2, 1e9 * (0.3 + 1j)), (0, 1e9j)])
    h = interaction_field(phi, psi)
    assert np.max(np.abs(h.mat - h.mat.conj().T)) > HERMITICITY_TOL
    decomp = eigh(h)
    assert sum(decomp.multiplicities) == space.dimension
    top = np.max(np.abs(h.mat))
    skewed = h.mat.copy()
    skewed[0, 1] += 1e-6 * top
    with pytest.raises(NotHermitian):
        eigh(skewed)


def test_exp_action_of_zero_is_identity():
    space = k_space(3)
    h = free_field(space, [(0, 0.7 - 0.2j), (2, 1.1)])
    e_in = np.zeros(space.dimension, dtype=complex)
    e_in[3] = 1
    assert np.array_equal(apply_unitary_exp(h, e_in, coupling=0.0), e_in)
    assert np.array_equal(apply_unitary_exp(free_field(space, []), e_in, coupling=2.5), e_in)


@pytest.mark.parametrize("coupling", [1e-20, 1e-3, 0.7, -2.0, 40.0])
def test_exp_action_matches_spectral_exp(rng, coupling):
    space = k_space(4)
    h = free_field(space, list(enumerate(generic_coeffs(rng, 4))))
    v = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    expected = unitary_exp(eigh(coupling * h)) @ v
    assert np.max(np.abs(apply_unitary_exp(h, v, coupling) - expected)) <= 1e-12


def reference_bessel_orders(z):
    """Miller's recurrence on a numpy array, the reference for the
    Python-float loop."""
    top = int(z + 20 * z ** (1 / 3)) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2 * k / z * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] *= 1e-250
    j /= j[0] + 2 * j[2::2].sum()
    orders = np.arange(len(j))
    return j[: np.flatnonzero((orders > z) & (np.abs(j) < BESSEL_TOL))[0]]


@pytest.mark.parametrize("z", [1e-3, 0.5, 2.4, 7.05, 30.0, 300.0, 3000.0, 9999.0])
def test_bessel_orders_match_array_recurrence(z):
    j = _bessel_orders(z)
    assert j.tobytes() == reference_bessel_orders(z).tobytes()
    # Neumann's identity J_0^2 + 2 (J_1^2 + J_2^2 + ...) = 1
    assert 2 * np.sum(j[1:] ** 2) + j[0] ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("z", [1e-5, 1e-8, 1e-12, 1e-16])
def test_bessel_orders_past_the_rescale_match_the_series(z):
    """At these z the backward recurrence passes 1e250 and is rescaled;
    each order matches the two-term series
    J_k(z) = (z/2)^k / k! (1 - (z/2)^2 / (k+1)), summed exactly and
    rounded once, within 4 ulp."""
    half = Fraction(z) / 2
    j = _bessel_orders(z)
    series = [
        float(half**k / math.factorial(k) * (1 - half**2 / (k + 1))) for k in range(len(j))
    ]
    assert len(j) >= 2
    assert np.all(np.abs(j - series) <= 4 * np.finfo(float).eps * np.abs(series))
