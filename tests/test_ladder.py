import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toyqft import (
    OccupationState,
    ParticleMode,
    Statistics,
    ac_operator,
    annihilator,
    anticommutator,
    commutator,
    creator,
    build_roster,
    build_space,
)
from toyqft.errors import NotInBasis, SpaceMismatch, UnknownMode
from toyqft.ladder import OperatorMatrix
from toyqft.spectral import _Rows

from conftest import (
    boson_modes,
    canonicalize,
    fermion_modes,
    generic_coeffs,
    identity,
    j_space,
    k_space,
    ket,
    l_space,
    number_operator,
)

F, B = Statistics.FERMION, Statistics.BOSON

MAXABS = lambda op: np.max(np.abs(op.mat))


def test_fermion_annihilation_action():
    space = k_space(2)
    a1 = annihilator(space, 0)
    # a(p1)|p1 p2> = |p2>
    col = a1.mat[:, ket(space, 0, 1)]
    expected = np.zeros(4)
    expected[ket(space, 1)] = 1.0
    assert np.allclose(col, expected)


def test_fermion_annihilation_sign():
    space = k_space(2)
    a2 = annihilator(space, 1)
    # p2 sits behind p1 in |p1 p2>, so removing it costs a sign
    assert a2.mat[ket(space, 0), ket(space, 0, 1)] == -1


def test_annihilator_kills_vacuum():
    for space in (k_space(2), j_space(2, 2)):
        for mode in range(2):
            assert np.allclose(annihilator(space, mode).mat[:, 0], 0)


def test_boson_sqrt_factor():
    space = j_space(2, 3)
    a1 = annihilator(space, 0)
    two = space.index_of(OccupationState(bosons=((0, 2),)))
    one = space.index_of(OccupationState(bosons=((0, 1),)))
    assert np.isclose(a1.mat[one, two], np.sqrt(2))


def test_creator_on_vacuum():
    space = k_space(3)
    for mode in range(3):
        col = creator(space, mode).mat[:, 0]
        assert col[ket(space, mode)] == 1
        assert np.count_nonzero(col) == 1


def test_boson_creator_boundary_zero():
    space = j_space(2, 2)
    c1 = creator(space, 0)
    for idx, state in enumerate(space.basis):
        if state.total == space.cutoff_s:
            assert np.allclose(c1.mat[:, idx], 0)


def test_fermion_double_occupation_zero():
    space = k_space(3)
    c1 = creator(space, 0)
    assert np.allclose(c1.mat[:, ket(space, 0)], 0)


@pytest.mark.parametrize(
    "space_builder",
    [lambda: k_space(4), lambda: j_space(2, 3), lambda: l_space(2, 2, 3)],
)
def test_creator_is_adjoint_of_annihilator(space_builder):
    space = space_builder()
    for mode in range(len(space.modes)):
        c = creator(space, mode)
        a = annihilator(space, mode)
        assert np.array_equal(c.mat, a.adjoint().mat)


@pytest.mark.parametrize("s", range(1, 7))
def test_fermion_car(s):
    space = k_space(s)
    eye = identity(space)
    ann = [annihilator(space, i) for i in range(s)]
    cre = [creator(space, i) for i in range(s)]
    for i in range(s):
        for j in range(s):
            assert MAXABS(anticommutator(ann[i], ann[j])) <= 1e-12
            assert MAXABS(anticommutator(cre[i], cre[j])) <= 1e-12
            delta = eye if i == j else 0 * eye
            assert MAXABS(anticommutator(ann[i], cre[j]) - delta) <= 1e-12


def test_boson_commutators_vanish_everywhere():
    space = j_space(3, 3)
    for i in range(3):
        for j in range(3):
            assert MAXABS(commutator(annihilator(space, i), annihilator(space, j))) <= 1e-12
            assert MAXABS(commutator(creator(space, i), creator(space, j))) <= 1e-12


def test_boson_ccr_off_boundary():
    space = j_space(2, 3)
    eye = identity(space)
    interior = [
        idx for idx, state in enumerate(space.basis)
        if state.total < space.cutoff_s
    ]
    for i in range(2):
        for j in range(2):
            delta = eye if i == j else 0 * eye
            diff = (
                commutator(annihilator(space, i), creator(space, j)) - delta
            ).mat
            assert np.max(np.abs(diff[:, interior])) <= 1e-12


def test_boson_boundary_rule_diagonal():
    # [a_j, a_j*] psi = -N_j(psi) psi on total-count-s states
    space = j_space(2, 3)
    for j in range(2):
        comm = commutator(annihilator(space, j), creator(space, j)).mat
        for idx, state in enumerate(space.basis):
            if state.total != space.cutoff_s:
                continue
            expected = np.zeros(space.dimension)
            expected[idx] = -state.count_of(j)
            assert np.max(np.abs(comm[:, idx] - expected)) <= 1e-12


def _roster(*entries):
    return [
        ParticleMode(i, f"m{i}", stats, mass)
        for i, (stats, mass) in enumerate(entries)
    ]


INTERLEAVED = _roster((F, 1), (B, 0), (F, 2), (F, 1), (B, 0))
PAIRS = {"BB": (B, B), "FB": (F, B), "BF": (B, F), "FF": (F, F)}

# name -> (roster, cutoff s)
ORACLE_SPACES = {
    "k3": (fermion_modes(3), 3),
    "k4-s2": (fermion_modes(4), 2),
    "k2-s1": (fermion_modes(2), 1),
    "j23": (boson_modes(2), 3),
    "j32": (boson_modes(3), 2),
    "j41": (boson_modes(4), 1),
    "one-boson-s4": (_roster((B, 3)), 4),
    "l223": (fermion_modes(2) + boson_modes(2, start=2), 3),
    "same-mass-fermions-boson": (_roster((F, 1), (F, 1), (B, 1), (F, 1)), 4),
    "interleaved-s2": (INTERLEAVED, 2),
    "interleaved-s3": (INTERLEAVED, 3),
    "two-families-two-bosons": (
        _roster((B, 1), (F, 2), (F, 1), (B, 2), (F, 2), (F, 1)), 3
    ),
    **{
        f"roster-{pair}-r2-s{s}": (build_roster(1, 2, 2, *stats), s)
        for pair, stats in PAIRS.items()
        for s in range(1, 5)
    },
    # two fermion blocks of one mass: two species, which commute
    **{f"roster-FF-m11-r2-s{s}": (build_roster(1, 1, 2, F, F), s) for s in range(1, 5)},
}


def reference_creator(space, mode_id):
    """a*'s entries as (row, col, value), in (row, col) order, from the
    defining action: prepend the mode to each ket's raw sequence and
    canonicalize, times sqrt of the new count."""
    entries = []
    for col, state in enumerate(space.basis):
        hit = canonicalize(space, (mode_id,) + state.encoding())
        if hit is None:
            continue
        target, sign = hit
        try:
            row = space.index_of(target)
        except NotInBasis:
            continue
        entries.append((row, col, sign * np.sqrt(target.count_of(mode_id))))
    return sorted(entries)


def _entries(op):
    return list(zip(op.rows.tolist(), op.cols.tolist(), op.data.tolist()))


@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_ladder_matches_canonicalize_reference(name):
    space = build_space(*ORACLE_SPACES[name])
    for mode in space.modes:
        expected = reference_creator(space, mode.id)
        assert _entries(creator(space, mode.id)) == expected
        assert _entries(annihilator(space, mode.id)) == sorted(
            (col, row, value) for row, col, value in expected
        )


def test_space_mismatch_rejected():
    a = annihilator(k_space(2), 0)
    b = annihilator(k_space(2), 0)
    with pytest.raises(SpaceMismatch):
        _ = a + b  # distinct space objects, same shape


def test_unknown_mode():
    with pytest.raises(UnknownMode):
        annihilator(k_space(2), 5)
    with pytest.raises(UnknownMode):
        number_operator(k_space(2), -1)


def test_ac_operator_zero_alpha():
    space = k_space(2)
    assert MAXABS(ac_operator(space, 0, 0)) == 0


def test_ac_operator_hermitian_and_square(rng):
    space = k_space(3)
    (alpha,) = generic_coeffs(rng, 1)
    eta = ac_operator(space, 0, alpha)
    assert np.array_equal(eta.mat, eta.mat.conj().T)
    # eta(p1)^2 = |alpha|^2 I on K^s
    assert MAXABS(eta @ eta - abs(alpha) ** 2 * identity(space)) <= 1e-12


def test_ac_anticommutator_relation(rng):
    space = k_space(3)
    alphas = generic_coeffs(rng, 3)
    etas = [ac_operator(space, i, a) for i, a in enumerate(alphas)]
    eye = identity(space)
    for i in range(3):
        for j in range(3):
            expected = (2 * abs(alphas[i]) ** 2 * eye) if i == j else 0 * eye
            assert MAXABS(anticommutator(etas[i], etas[j]) - expected) <= 1e-12


def test_number_operator_diagonal():
    space = j_space(2, 2)
    n0 = number_operator(space, 0)
    for idx, state in enumerate(space.basis):
        assert n0.mat[idx, idx] == state.count_of(0)



# Dyadic entries keep every sum and product exact, so sparse and dense
# arithmetic agree whatever order they add in.
DYADIC = st.integers(-8, 8).map(lambda k: k / 4)
PROPERTY_SPACE = l_space(2, 2, 2)  # dim 13


@st.composite
def sparse_dense(draw):
    """A dense matrix on PROPERTY_SPACE with at most 40 nonzeros."""
    n = PROPERTY_SPACE.dimension
    index = st.integers(0, n - 1)
    entries = draw(st.dictionaries(
        st.tuples(index, index), st.builds(complex, DYADIC, DYADIC), max_size=40
    ))
    dense = np.zeros((n, n), dtype=complex)
    for position, value in entries.items():
        dense[position] = value
    return dense


def assert_canonical(op, dense):
    """op holds exactly dense's nonzeros, sorted by (row, col)."""
    n = op.space.dimension
    keys = op.rows * n + op.cols
    assert (np.diff(keys) > 0).all()
    assert (op.data != 0).all()
    assert np.array_equal(op.mat, dense)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sparse_dense(),
    sparse_dense(),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_sparse_arithmetic_matches_dense(x, y, scalar):
    a, b = OperatorMatrix(PROPERTY_SPACE, x), OperatorMatrix(PROPERTY_SPACE, y)
    assert_canonical(a, x)
    assert_canonical(a + b, x + y)
    assert_canonical(a - b, x - y)
    assert_canonical(a - a, 0 * x)
    assert_canonical(a @ b, x @ y)
    assert_canonical(commutator(a, b), x @ y - y @ x)
    assert_canonical(anticommutator(a, b), x @ y + y @ x)
    assert_canonical(scalar * a, scalar * x)
    assert_canonical(a * 0, 0 * x)
    assert_canonical(-a, -x)
    assert_canonical(a.adjoint(), x.conj().T)
    assert a.one_norm() == pytest.approx(np.abs(x).sum(0).max(), rel=1e-15, abs=0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sparse_dense(), sparse_dense())
def test_sector_product_matches_dense(x, y):
    """The exp action's product over x's entries is x @ v on every ket,
    and exactly 0 on the rows where x has no entry."""
    v = (x + y)[0]
    rows = _Rows(OperatorMatrix(PROPERTY_SPACE, x))
    got = rows.product(rows.h.data, v)
    assert np.max(np.abs(got - x @ v), initial=0.0) <= 1e-15
    assert not got[~x.any(1)].any()


def test_ladder_entries_are_canonical():
    space = l_space(2, 2, 3)
    for mode in range(4):
        for op in (annihilator(space, mode), creator(space, mode), number_operator(space, mode)):
            assert_canonical(op, op.mat)
