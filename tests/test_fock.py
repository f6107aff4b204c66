import itertools
import json
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toyqft import (
    OccupationState,
    ParticleMode,
    Statistics,
    build_roster,
    build_space,
    count_kets,
)
from toyqft.errors import InvalidRoster, NotInBasis, UnknownMode

from conftest import (
    boson_modes,
    canonicalize,
    fermion_modes,
    j_space,
    k_space,
    ket,
    l_space,
)


def fermion_dimension(s):
    """Closed form for a pure-fermion space with n = s modes."""
    return 2**s


def boson_dimension(n, s):
    """Closed form for a pure-boson space: sum of multiset coefficients."""
    return sum(comb(n + k - 1, k) for k in range(s + 1))


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
    space = build_space([], 1)
    assert space.dimension == 1
    assert space.index_of(OccupationState()) == 0
    assert space.basis[0] == OccupationState()


def test_fermion_space_stops_at_its_largest_total():
    """Two fermions hold at most two particles: a cutoff far past that
    gives the cutoff-2 basis, with no loop over the empty totals."""
    huge = build_space(fermion_modes(2), 10**30)
    assert huge.cutoff_s == 10**30
    assert np.array_equal(huge.occupations, build_space(fermion_modes(2), 2).occupations)


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
    for k, state in enumerate(space.basis):
        assert space.index_of(state) == k


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
        assert space.basis[0].total == 0
        assert space.index_of(OccupationState()) == 0


def test_state_outside_basis():
    space = k_space(2)
    with pytest.raises(NotInBasis):
        space.index_of(OccupationState(fermions=(0, 1, 2)))


def test_basis_order_deterministic():
    a = l_space(2, 2, 2)
    b = l_space(2, 2, 2)
    assert [s.encoding() for s in a.basis] == [s.encoding() for s in b.basis]


def test_momentum_off_shell_rejected():
    with pytest.raises(ValueError):
        ParticleMode(0, "x", Statistics.BOSON, mass=1, momentum=(2, 0, 0, 0))


def test_basis_json_dump():
    space = l_space(1, 1, 2)
    dump = [state.to_json() for state in space.basis]
    assert dump[0] == {"fermions": [], "bosons": []}
    assert len(dump) == space.dimension


def reference_occupations(modes, s):
    """Every admissible count row by brute force, sorted by
    (total, encoding()): the documented basis order."""
    fermion = [m.statistics is Statistics.FERMION for m in modes]
    states = []
    for counts in itertools.product(*[range(2 if f else s + 1) for f in fermion]):
        if sum(counts) > s:
            continue
        occupied = [(m, c) for m, c in enumerate(counts) if c]
        states.append(OccupationState(
            tuple(m for m, _ in occupied if fermion[m]),
            tuple((m, c) for m, c in occupied if not fermion[m]),
        ))
    states.sort(key=lambda st: (st.total, st.encoding()))
    rows = [[st.count_of(m.id) for m in modes] for st in states]
    return np.array(rows, dtype=np.int64).reshape(len(states), len(modes))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    roster=st.lists(
        st.tuples(st.sampled_from("FB"), st.integers(0, 2)), max_size=6
    ),
    s=st.integers(1, 4),
)
@example(roster=[("F", 1), ("B", 0), ("F", 2), ("F", 1), ("B", 0)], s=3)
@example(roster=[("F", 1), ("B", 0), ("F", 2), ("F", 1), ("B", 0)], s=5)
@example(roster=[("B", 0), ("F", 1), ("B", 0), ("F", 1)], s=4)
@example(roster=[("F", 1), ("B", 0), ("B", 0), ("F", 1)], s=4)
@example(roster=[("B", 0)] * 3 + [("F", 0)] * 3, s=4)
@example(roster=[], s=1)
@example(roster=[], s=4)
def test_occupations_match_brute_force_order(roster, s):
    stats = {"F": Statistics.FERMION, "B": Statistics.BOSON}
    modes = [ParticleMode(i, f"m{i}", stats[t], m) for i, (t, m) in enumerate(roster)]
    space = build_space(modes, s)
    assert np.array_equal(space.occupations, reference_occupations(modes, s))
    assert space.occupations.dtype == np.int64
    assert np.array_equal(space.find_rows(space.occupations), np.arange(space.dimension))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "statistics",
    [(Statistics.BOSON, Statistics.FERMION), (Statistics.FERMION, Statistics.BOSON)],
    ids=["boson-first", "fermion-first"],
)
def test_two_block_roster_matches_brute_force_order(statistics, s):
    modes = build_roster(2, 1, 2, *statistics)
    space = build_space(modes, s)
    assert np.array_equal(space.occupations, reference_occupations(modes, s))


def test_one_boson_space_is_its_count_at_a_high_cutoff():
    modes = boson_modes(1)
    assert np.array_equal(build_space(modes, 3000).occupations, np.arange(3001)[:, None])


@pytest.mark.parametrize(
    "statistics",
    [(Statistics.BOSON, Statistics.FERMION), (Statistics.FERMION, Statistics.BOSON)],
    ids=["boson-first", "fermion-first"],
)
def test_two_mode_roster_matches_brute_force_order_at_a_high_cutoff(statistics):
    """400 totals, with the boson's id below the fermion's and above it:
    the encoding leads with the fermion whatever its id."""
    modes = [ParticleMode(i, f"m{i}", stat) for i, stat in enumerate(statistics)]
    space = build_space(modes, 400)
    assert np.array_equal(space.occupations, reference_occupations(modes, 400))


def test_build_space_memory_is_its_count_table():
    """One boson at s = 3000 has a 23 KiB count table; the build's
    traced peak stays below 1 MiB, as nothing it holds per ket grows
    with the ket's particle total."""
    modes = boson_modes(1)
    tracemalloc.start()
    try:
        build_space(modes, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    roster=st.lists(st.sampled_from("FB"), max_size=5),
    s=st.integers(1, 4),
)
@example(roster=["F", "F", "B", "B"], s=3)
@example(roster=["B", "F", "B"], s=2)
@example(roster=["F"], s=1)
@example(roster=[], s=1)
def test_find_rows_matches_a_dict_of_rows(roster, s):
    """find_rows gives the ket a dict keyed by row tuples gives, -1 for a
    row that is no ket: every ket's row, each ket's row with one count
    moved by one (a -1 count, a total above s, a fermion count of 2) and
    s + 1 particles in one mode."""
    stats = {"F": Statistics.FERMION, "B": Statistics.BOSON}
    space = build_space([ParticleMode(i, f"m{i}", stats[t]) for i, t in enumerate(roster)], s)
    occ = space.occupations
    kets = {tuple(row): n for n, row in enumerate(occ.tolist())}
    rows = [occ, (s + 1) * np.eye(len(roster), dtype=np.int64)]
    for j in range(len(roster)):
        for step in (-1, 1):
            moved = occ.copy()
            moved[:, j] += step
            rows.append(moved)
    rows = np.concatenate(rows)
    expected = [kets.get(tuple(row), -1) for row in rows.tolist()]
    assert space.find_rows(rows).tolist() == expected
    assert expected[:space.dimension] == list(range(space.dimension))
    if roster:  # every kind of miss is among the rows
        misses = rows[np.array(expected) < 0]
        assert (misses.min(1) == -1).any()
        assert (misses.sum(1) > s).any()
        if "F" in roster:
            fermion = np.array(roster) == "F"
            assert (misses[:, fermion] == 2).any()


# l_space(2, 2, 3): fermion modes 0, 1 and boson modes 2, 3
NOT_IN_BASIS = {
    "fermion-id-names-boson": OccupationState(fermions=(2,)),
    "boson-id-names-fermion": OccupationState(bosons=((0, 1),)),
    "same-id-both-lists": OccupationState(fermions=(0,), bosons=((0, 1),)),
    "fermion-id-past-roster": OccupationState(fermions=(4,)),
    "boson-id-past-roster": OccupationState(bosons=((4, 1),)),
    "fermion-id-negative": OccupationState(fermions=(-1,)),
    "boson-id-negative": OccupationState(bosons=((-1, 1),)),
    "boson-count-past-cutoff": OccupationState(bosons=((2, 4),)),
    "total-past-cutoff": OccupationState(fermions=(0, 1), bosons=((2, 1), (3, 1))),
    "boson-count-huge": OccupationState(bosons=((3, 10**30),)),
}


@pytest.mark.parametrize("state", NOT_IN_BASIS.values(), ids=NOT_IN_BASIS)
def test_index_of_not_in_basis(state):
    with pytest.raises(NotInBasis):
        l_space(2, 2, 3).index_of(state)


def test_states_hold_python_ints():
    space = l_space(2, 2, 3)
    for state in space.basis:
        ints = state.fermions + tuple(x for pair in state.bosons for x in pair)
        assert all(type(x) is int for x in ints)
    dump = [state.to_json() for state in space.basis]
    assert json.loads(json.dumps(dump)) == dump


@pytest.mark.parametrize(
    "fermions, bosons, cutoff",
    [(f, b, s) for f in range(5) for b in range(4) for s in (1, 2, 3)],
)
def test_count_kets_counts_the_basis(fermions, bosons, cutoff):
    """count k is the number of kets with at most k fermions, up to
    min(fermions, cutoff), so the last is the dimension, also with more
    fermions than the cutoff."""
    space = build_space(fermion_modes(fermions) + boson_modes(bosons, start=fermions), cutoff)
    held = space.occupations[:, :fermions].sum(1)
    counts = list(count_kets(fermions, bosons, cutoff))
    assert counts == [int((held <= k).sum()) for k in range(min(fermions, cutoff) + 1)]
    assert counts[-1] == space.dimension
