import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toyqft import (
    OccupationState,
    ParticleMode,
    Statistics,
    build_space,
    canonicalize,
    ket,
)
from toyqft.errors import InvalidRoster, NotInBasis, UnknownMode
from toyqft.fock import boson_dimension, fermion_dimension

from conftest import boson_modes, fermion_modes, j_space, k_space, l_space


def brute_force_count(n_fermion, n_boson, s):
    """Count admissible occupation states by direct enumeration."""
    count = 0
    for fermion_bits in range(2**n_fermion):
        n_f = bin(fermion_bits).count("1")
        if n_f > s:
            continue
        budget = s - n_f

        def boson_fills(k, remaining):
            if k == 0:
                return 1
            return sum(boson_fills(k - 1, remaining - c) for c in range(remaining + 1))

        count += boson_fills(n_boson, budget)
    return count


def test_k2_basis_order():
    space = k_space(2)
    assert space.dimension == 4
    assert space.basis[0] == OccupationState()
    assert [st.fermions for st in space.basis] == [(), (0,), (1,), (0, 1)]


def test_k2_full_state_index():
    space = k_space(2)
    assert ket(space, 0, 1) == 3


def test_j23_dimension_and_order():
    space = j_space(2, 3)
    assert space.dimension == 10
    # one-boson states come before any two-boson state
    assert space.basis[1].bosons == ((0, 1),)
    assert space.basis[3].bosons == ((0, 2),)
    assert space.basis[4].bosons == ((0, 1), (1, 1))


def test_l222_dimension():
    assert l_space(2, 2, 2).dimension == 13


def test_l222_basis_order_fermion_block_first():
    space = l_space(2, 2, 2)
    encodings = [state.encoding() for state in space.basis]
    expected = [
        (), (0,), (1,), (2,), (3,),
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    ]
    assert encodings == expected


def test_empty_roster_vacuum_only():
    assert build_space([], 1).dimension == 1


def test_fermion_dimension_formula():
    for s in range(1, 7):
        assert k_space(s).dimension == fermion_dimension(s) == 2**s


def test_boson_dimension_formula():
    for n in (1, 2, 3):
        for s in (1, 2, 3, 4):
            assert j_space(n, s).dimension == boson_dimension(n, s)
    assert boson_dimension(1, 0) == 1


@settings(max_examples=40, deadline=None)
@given(
    n_f=st.integers(0, 3),
    n_b=st.integers(0, 3),
    s=st.integers(1, 6),
)
def test_dimension_matches_brute_force(n_f, n_b, s):
    modes = fermion_modes(n_f) + boson_modes(n_b, start=n_f)
    assert build_space(modes, s).dimension == brute_force_count(n_f, n_b, s)


def test_duplicate_mode_id_rejected():
    modes = [
        ParticleMode(0, "a", Statistics.FERMION),
        ParticleMode(0, "b", Statistics.FERMION),
    ]
    with pytest.raises(InvalidRoster):
        build_space(modes, 2)


def test_non_dense_ids_rejected():
    modes = [ParticleMode(1, "a", Statistics.FERMION)]
    with pytest.raises(InvalidRoster):
        build_space(modes, 1)


def test_canonicalize_fermion_swap_sign():
    space = k_space(2)
    state, sign = canonicalize(space, (1, 0))
    assert state.fermions == (0, 1)
    assert sign == -1


def test_canonicalize_boson_reorder_no_sign():
    space = j_space(3, 3)
    state, sign = canonicalize(space, (1, 0, 2))
    assert sign == 1
    assert state.bosons == ((0, 1), (1, 1), (2, 1))


def test_canonicalize_pauli_exclusion():
    space = k_space(2)
    assert canonicalize(space, (0, 0)) is None


def test_canonicalize_mixed_interchange_no_sign():
    space = l_space(2, 2, 2)
    # fermion after boson: crossing a boson carries no sign
    state, sign = canonicalize(space, (2, 0))
    assert sign == 1
    assert state.fermions == (0,)
    assert state.bosons == ((2, 1),)


def test_canonicalize_unknown_mode():
    space = k_space(2)
    with pytest.raises(UnknownMode):
        canonicalize(space, (7,))


@settings(max_examples=50, deadline=None)
@given(raw=st.lists(st.integers(0, 3), max_size=4))
def test_canonicalize_idempotent(raw):
    space = build_space(
        fermion_modes(2) + boson_modes(2, start=2), 4
    )
    first = canonicalize(space, raw)
    if first is None:
        return
    state, _ = first
    again, sign = canonicalize(space, state.encoding())
    assert sign == 1
    assert again == state


def test_index_state_round_trip():
    space = l_space(2, 2, 3)
    for k in range(space.dimension):
        assert space.index_of(space.state_at(k)) == k


@pytest.mark.parametrize(
    "space_builder",
    [lambda: k_space(3), lambda: j_space(2, 3), lambda: l_space(2, 2, 3)],
)
def test_occupations_match_basis(space_builder):
    space = space_builder()
    occ = space.occupations
    assert occ.shape == (space.dimension, len(space.modes))
    assert not occ.flags.writeable
    for row, state in enumerate(space.basis):
        assert occ[row].tolist() == [state.count_of(m.id) for m in space.modes]


def test_count_of():
    state = OccupationState(bosons=((0, 2), (1, 1)))
    assert state.count_of(0) == 2
    assert state.count_of(1) == 1
    assert state.count_of(5) == 0
    assert OccupationState().count_of(0) == 0
    assert OccupationState(fermions=(0, 1)).count_of(0) == 1


def test_vacuum_is_first():
    for space in (k_space(3), j_space(2, 2), l_space(1, 1, 2)):
        assert space.state_at(0).total == 0
        assert space.index_of(OccupationState()) == 0


def test_state_outside_basis():
    space = k_space(2)
    with pytest.raises(NotInBasis):
        space.index_of(OccupationState(fermions=(0, 1, 2)))
    with pytest.raises(NotInBasis):
        space.state_at(99)


def test_basis_order_deterministic():
    a = l_space(2, 2, 2)
    b = l_space(2, 2, 2)
    assert [s.encoding() for s in a.basis] == [s.encoding() for s in b.basis]


def test_momentum_off_shell_rejected():
    with pytest.raises(ValueError):
        ParticleMode(0, "x", Statistics.BOSON, mass=1, momentum=(2, 0, 0, 0))


def test_basis_json_dump():
    space = l_space(1, 1, 2)
    dump = space.basis_to_json()
    assert dump[0] == {"fermions": [], "bosons": []}
    assert len(dump) == space.dimension
