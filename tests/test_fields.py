import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from toyqft import (
    OccupationState,
    ParticleMode,
    Parity,
    Statistics,
    build_space,
    classify_form,
    eigh,
    field_spectrum,
    free_field,
    interaction_field,
    self_interaction,
)
from toyqft.errors import DuplicateTerm, NotAForm, NotFinite, SpaceMismatch, UnknownMode
from toyqft.ladder import zero

from conftest import generic_coeffs, identity, j_space, k_space, ket, l_space
from test_cli import spectrum_cases


def vector_from_kets(space, components):
    """Dense vector from {raw ket ids: amplitude} entries."""
    v = np.zeros(space.dimension, dtype=complex)
    for ids, amp in components:
        v[ket(space, *ids)] = amp
    return v


def residual(op, vec, lam):
    return np.linalg.norm(op.mat @ vec - lam * vec)


def rel_residual(op, vec, lam):
    scale = np.linalg.norm(op.mat, 2) * np.linalg.norm(vec)
    return residual(op, vec, lam) / scale


def test_k2_matrix_first_row(rng):
    space = k_space(2)
    alpha, beta = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, alpha), (1, beta)])
    assert np.allclose(phi.mat[0], [0, alpha, beta, 0])
    # second row carries the exchange sign on the two-particle ket
    assert np.allclose(phi.mat[1], [np.conj(alpha), 0, 0, -beta])


def test_free_field_hermitian(rng):
    for space in (k_space(3), j_space(2, 3), l_space(2, 2, 2)):
        coeffs = generic_coeffs(rng, len(space.modes))
        phi = free_field(space, list(enumerate(coeffs)))
        assert np.array_equal(phi.mat, phi.mat.conj().T)


def test_free_field_empty_spec():
    space = k_space(2)
    assert np.max(np.abs(free_field(space, []).mat)) == 0


def test_free_field_duplicate_mode():
    with pytest.raises(DuplicateTerm):
        free_field(k_space(2), [(0, 1.0), (0, 2.0)])


def test_j22_sqrt2_entry(rng):
    space = j_space(2, 2)
    alpha, beta = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, alpha), (1, beta)])
    one = space.index_of(OccupationState(bosons=((0, 1),)))
    two = space.index_of(OccupationState(bosons=((0, 2),)))
    assert np.isclose(phi.mat[one, two], np.sqrt(2) * alpha)


def test_interaction_symmetric_and_hermitian(rng):
    space = l_space(2, 2, 2)
    a, b, g, d = generic_coeffs(rng, 4)
    phi = free_field(space, [(0, a), (1, b)])
    psi = free_field(space, [(2, g), (3, d)])
    tau = interaction_field(phi, psi)
    tau_rev = interaction_field(psi, phi)
    assert np.array_equal(tau.mat, tau_rev.mat)
    assert np.max(np.abs(tau.mat - tau.mat.conj().T)) <= 1e-14


def test_interaction_with_self_is_square(rng):
    space = k_space(2)
    a, b = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, a), (1, b)])
    assert np.allclose(interaction_field(phi, phi).mat, (phi @ phi).mat)


def test_interaction_with_identity(rng):
    space = k_space(2)
    (a,) = generic_coeffs(rng, 1)
    phi = free_field(space, [(0, a)])
    assert np.allclose(interaction_field(phi, identity(space)).mat, phi.mat)


def test_interaction_space_mismatch():
    with pytest.raises(SpaceMismatch):
        interaction_field(zero(k_space(2)), zero(k_space(2)))


def test_self_interaction_k2_scalar(rng):
    space = k_space(2)
    a, b = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, a), (1, b)])
    expected = (abs(a) ** 2 + abs(b) ** 2) * identity(space)
    assert np.max(np.abs(self_interaction(phi).mat - expected.mat)) <= 1e-12


def test_self_interaction_zero_field():
    space = k_space(2)
    assert np.max(np.abs(self_interaction(zero(space)).mat)) == 0


def test_self_interaction_psd(rng):
    space = j_space(2, 2)
    a, b = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, a), (1, b)])
    w = np.linalg.eigvalsh(self_interaction(phi).mat)
    assert w.min() >= -1e-12


def test_single_ac_spectrum_on_ks(rng):
    # +-|alpha| with multiplicity 2^(s-1) each
    for s in (2, 3, 4, 5):
        space = k_space(s)
        (alpha,) = generic_coeffs(rng, 1)
        phi = free_field(space, [(0, alpha)])
        pairs = eigh(phi).pairs()
        assert len(pairs) == 2
        assert pairs[0][1] == pairs[1][1] == 2 ** (s - 1)
        assert np.isclose(pairs[1][0], abs(alpha), rtol=1e-10)


def test_single_ac_eigenvector_forms(rng):
    # |alpha| |S> + conj(alpha) |p1 S> is an eigenvector for +|alpha|,
    # and the sign-flipped combination for -|alpha|
    space = k_space(3)
    (alpha,) = generic_coeffs(rng, 1)
    eta = free_field(space, [(0, alpha)])
    for rest in [(), (1,), (2,), (1, 2)]:
        for lam_sign in (1, -1):
            v = vector_from_kets(
                space,
                [(rest, abs(alpha)), ((0,) + rest, lam_sign * np.conj(alpha))],
            )
            assert rel_residual(eta, v, lam_sign * abs(alpha)) <= 1e-10


def test_k2_field_eigenvector_residuals(rng):
    space = k_space(2)
    alpha, beta = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, alpha), (1, beta)])
    om = np.hypot(abs(alpha), abs(beta))
    listed = [
        (om, np.array([-alpha, -om, 0, np.conj(beta)])),
        (om, np.array([om, np.conj(alpha), np.conj(beta), 0])),
        (-om, np.array([-alpha, om, 0, np.conj(beta)])),
        (-om, np.array([-om, np.conj(alpha), np.conj(beta), 0])),
    ]
    for lam, v in listed:
        assert rel_residual(phi, v, lam) <= 1e-10


def test_j22_zero_eigenvectors(rng):
    space = j_space(2, 2)
    alpha, beta = generic_coeffs(rng, 2)
    phi = free_field(space, [(0, alpha), (1, beta)])
    # the two listed null vectors of the two-boson field
    v1 = np.zeros(6, dtype=complex)
    v1[0] = -np.sqrt(2) * alpha * beta
    v1[space.index_of(OccupationState(bosons=((0, 2),)))] = np.conj(alpha) * beta
    v1[space.index_of(OccupationState(bosons=((1, 2),)))] = alpha * np.conj(beta)
    v2 = np.zeros(6, dtype=complex)
    v2[0] = -np.sqrt(2) * alpha**2
    v2[space.index_of(OccupationState(bosons=((0, 2),)))] = (
        abs(alpha) ** 2 - abs(beta) ** 2
    )
    v2[space.index_of(OccupationState(bosons=((0, 1), (1, 1))))] = (
        np.sqrt(2) * alpha * np.conj(beta)
    )
    for v in (v1, v2):
        assert np.linalg.norm(phi.mat @ v) <= 1e-10 * np.linalg.norm(v)


def test_classify_vacuum():
    space = j_space(2, 2)
    v = np.zeros(space.dimension)
    v[0] = 1.0
    cls = classify_form(space, v, 0, 1)
    assert cls.type_t == 1
    assert cls.form == ((0, 0),)
    assert cls.parity is Parity.EVEN


def test_classify_odd_pair():
    space = j_space(2, 2)
    v = np.zeros(space.dimension, dtype=complex)
    v[space.index_of(OccupationState(bosons=((0, 1),)))] = 0.3
    v[space.index_of(OccupationState(bosons=((1, 1),)))] = 0.8j
    cls = classify_form(space, v, 0, 1)
    assert cls.type_t == 2
    assert set(cls.form) == {(1, 0), (0, 1)}
    assert cls.parity is Parity.ODD


def test_classify_even_type4():
    space = j_space(2, 2)
    v = np.zeros(space.dimension, dtype=complex)
    v[0] = 1.0
    v[space.index_of(OccupationState(bosons=((0, 1), (1, 1))))] = 0.5
    v[space.index_of(OccupationState(bosons=((0, 2),)))] = 0.25
    v[space.index_of(OccupationState(bosons=((1, 2),)))] = -0.5
    cls = classify_form(space, v, 0, 1)
    assert cls.type_t == 4
    assert set(cls.form) == {(0, 0), (1, 1), (2, 0), (0, 2)}
    assert cls.parity is Parity.EVEN


def test_classify_mixed_parity():
    space = j_space(2, 2)
    v = np.zeros(space.dimension, dtype=complex)
    v[0] = 1.0
    v[space.index_of(OccupationState(bosons=((0, 1),)))] = 1.0
    assert classify_form(space, v, 0, 1).parity is Parity.MIXED


def test_classify_spectator_mismatch():
    # components differing in a third mode's occupation have no form
    space = j_space(3, 2)
    v = np.zeros(space.dimension, dtype=complex)
    v[space.index_of(OccupationState(bosons=((0, 1),)))] = 1.0
    v[space.index_of(OccupationState(bosons=((0, 1), (2, 1)))) ] = 1.0
    with pytest.raises(NotAForm):
        classify_form(space, v, 0, 1)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_classify_tolerance_must_be_finite_and_positive(tol):
    """A NaN tol would keep no component and classify any vector as the
    vacuum's type 0, EVEN."""
    space = j_space(2, 2)
    v = np.zeros(space.dimension)
    v[ket(space, 0, 1)] = 1.0
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        classify_form(space, v, 0, 1, tol=tol)


def test_classify_tolerance_filters_noise():
    space = j_space(2, 2)
    v = np.zeros(space.dimension, dtype=complex)
    v[0] = 1.0
    v[1] = 1e-12
    cls = classify_form(space, v, 0, 1, tol=1e-9)
    assert cls.type_t == 1


@pytest.mark.parametrize("p_mode, q_mode", [(99, 0), (-1, 0), (0, 99), (0, -1)])
def test_classify_unknown_mode(p_mode, q_mode):
    space = j_space(2, 2)
    v = np.zeros(space.dimension)
    v[0] = 1.0
    with pytest.raises(UnknownMode):
        classify_form(space, v, p_mode, q_mode)


def reference_classify(space, vector, p_mode, q_mode, tol):
    """classify_form ket by ket: (type, form, parity), or None for no form."""
    pairs, spectator = [], None
    basis = space.basis
    for idx, amp in enumerate(vector):
        if abs(amp) <= tol:
            continue
        state = basis[idx]
        rest = [state.count_of(m.id) for m in space.modes if m.id not in (p_mode, q_mode)]
        if spectator not in (None, rest):
            return None
        spectator = rest
        pairs.append((state.count_of(p_mode), state.count_of(q_mode)))
    odd = {(i + j) % 2 for i, j in pairs}
    parity = Parity.MIXED if len(odd) > 1 else Parity.ODD if odd == {1} else Parity.EVEN
    return len(pairs), tuple(pairs), parity


@pytest.mark.parametrize("seed", range(40))
def test_classify_matches_ket_by_ket(seed):
    # [F, B, F, B] at s=3; supports drawn from kets that share their
    # spectator counts (a form) or from anywhere (mostly no form)
    space = l_space(2, 2, 3)
    rng = np.random.default_rng(seed)
    p_mode, q_mode = rng.choice(4, size=2, replace=seed % 4 == 0)
    others = [m for m in range(4) if m not in (p_mode, q_mode)]
    occ = space.occupations
    pool = np.arange(space.dimension)
    if seed % 2:
        anchor = occ[rng.integers(space.dimension), others]
        pool = np.flatnonzero((occ[:, others] == anchor).all(1))
    support = rng.choice(pool, size=rng.integers(1, min(len(pool), 5) + 1), replace=False)
    v = np.zeros(space.dimension, dtype=complex)
    v[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    v[rng.integers(space.dimension)] += 1e-12
    expected = reference_classify(space, v, p_mode, q_mode, 1e-9)
    if expected is None:
        with pytest.raises(NotAForm):
            classify_form(space, v, p_mode, q_mode)
    else:
        cls = classify_form(space, v, p_mode, q_mode)
        assert (cls.type_t, cls.form, cls.parity) == expected


def dense_eigenvalues(modes, cutoff, terms, terms2=None, square=False):
    """Every eigenvalue, ascending, of the operator `field_spectrum`
    describes, built on the whole space and diagonalized by eigvalsh."""
    space = build_space(modes, cutoff)
    op = free_field(space, terms)
    if terms2 is not None:
        op = interaction_field(op, free_field(space, terms2))
    elif square:
        op = self_interaction(op)
    return np.linalg.eigvalsh(op.mat)


def assert_spectrum_matches_dense(modes, cutoff, terms, terms2=None, square=False):
    groups = field_spectrum(modes, cutoff, terms, terms2, square)
    values, multiplicities = zip(*groups)
    want = dense_eigenvalues(modes, cutoff, terms, terms2, square)
    got = np.repeat(values, multiplicities)
    assert len(got) == len(want)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(spectrum_cases())
def test_field_spectrum_matches_dense_eigenvalues(case):
    """The library twin of the CLI's dense-reference test: the same cases,
    with no scenario file, against eigvalsh of the whole space."""
    scenario, modes = case

    def terms(name):
        return [(t["mode"], complex(*t["alpha"])) for t in scenario[name]]

    terms2 = terms("field2") if "field2" in scenario else None
    square = scenario.get("self_interaction", False)
    assert_spectrum_matches_dense(modes, scenario["cutoff_s"], terms("field"), terms2, square)


@pytest.mark.parametrize("form", ["field", "square", "field2"])
def test_field_spectrum_on_a_larger_mixed_roster(form):
    """Ten modes at cutoff 4 (620 kets): fermions of two masses and
    bosons, each field naming four of them among spectators of every
    kind."""
    kinds = [("fermion", 1)] * 4 + [("boson", 0)] * 2 + [("fermion", 2)] * 2 + [("boson", 0)] * 2
    modes = [ParticleMode(i, f"m{i}", Statistics(st), mass) for i, (st, mass) in enumerate(kinds)]
    terms = [(0, 1.0), (3, 0.5 - 0.25j), (4, -0.8 + 0.6j), (6, 0.3 + 1.2j)]
    terms2 = [(9, 0.7j), (6, 1.1), (1, -0.4 + 0.2j), (4, 0.9 - 0.3j)]
    assert_spectrum_matches_dense(
        modes, 4, terms, terms2 if form == "field2" else None, form == "square"
    )


@pytest.mark.parametrize("group_tol", [np.nan, np.inf])
def test_field_spectrum_refuses_a_non_finite_group_tol(group_tol):
    """One boson at s=2 has the three values -sqrt(3), 0 and sqrt(3); a
    NaN or infinite group_tol would merge them into one."""
    modes = [ParticleMode(0, "m0", Statistics.BOSON)]
    assert [m for _, m in field_spectrum(modes, 2, [(0, 1)])] == [1, 1, 1]
    with pytest.raises(ValueError, match="group_tol must be finite and positive"):
        field_spectrum(modes, 2, [(0, 1)], group_tol=group_tol)


def test_field_spectrum_past_the_largest_float_raises_not_finite():
    """sigma² past the largest float is one NotFinite, with no warning."""
    modes = [ParticleMode(i, f"m{i}", Statistics.BOSON) for i in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFinite, match="spectrum is not finite"):
            field_spectrum(modes, 2, [(0, 1e200), (1, 1e200)], square=True)
