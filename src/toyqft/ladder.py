"""Annihilation/creation operator matrices and AC-operator algebra.

Everything is a dense complex matrix on a FockSpace.

Fermion sign rule: kets are stored with fermion ids ascending, and the
sign of removing (or inserting) mode j is (-1)^k where k is the number of
occupied same-species fermions preceding j in that canonical order.
Fermions of distinct species (different masses) commute, matching the
symmetric interchange of distinguishable particles in mixed spaces.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch
from .fock import OccupationState, fermion_family


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix tagged with the space it acts on."""

    space: object
    mat: np.ndarray

    def __post_init__(self):
        n = self.space.dimension
        if self.mat.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match dim {n}"
            )

    def _check(self, other):
        if other.space is not self.space:
            raise SpaceMismatch("operators act on different spaces")

    def __add__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.mat - other.mat)

    def __matmul__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.mat @ other.mat)

    def __mul__(self, scalar):
        return OperatorMatrix(self.space, scalar * self.mat)

    __rmul__ = __mul__

    def __neg__(self):
        return OperatorMatrix(self.space, -self.mat)

    def adjoint(self):
        return OperatorMatrix(self.space, self.mat.conj().T)

    def to_json(self):
        """Row-major dense entries as [re, im] pairs."""
        return [
            [[z.real, z.imag] for z in row] for row in self.mat.tolist()
        ]


def identity(space):
    return OperatorMatrix(space, np.eye(space.dimension, dtype=complex))


def zero(space):
    return OperatorMatrix(
        space, np.zeros((space.dimension, space.dimension), dtype=complex)
    )


def _family_position(space, state, mode_id):
    """Number of occupied same-species fermions preceding mode_id in the
    canonical ascending order; determines the exchange sign."""
    fam = fermion_family(space.mode(mode_id))
    return sum(
        1
        for f in state.fermions
        if f < mode_id and fermion_family(space.mode(f)) == fam
    )


def _remove_fermion(space, state, mode_id):
    """State with one fermion removed and the removal sign, or None."""
    if mode_id not in state.fermions:
        return None
    sign = -1 if _family_position(space, state, mode_id) % 2 else 1
    pos = state.fermions.index(mode_id)
    fermions = state.fermions[:pos] + state.fermions[pos + 1 :]
    return OccupationState(fermions, state.bosons), sign


def _insert_fermion(space, state, mode_id):
    """State with one fermion inserted and the insertion sign, or None."""
    if mode_id in state.fermions:
        return None
    sign = -1 if _family_position(space, state, mode_id) % 2 else 1
    pos = sum(1 for f in state.fermions if f < mode_id)
    fermions = state.fermions[:pos] + (mode_id,) + state.fermions[pos:]
    return OccupationState(fermions, state.bosons), sign


def _with_boson_count(state, mode_id, count):
    bosons = tuple(
        (m, c) for m, c in state.bosons if m != mode_id
    )
    if count:
        bosons = tuple(sorted(bosons + ((mode_id, count),)))
    return OccupationState(state.fermions, bosons)


def annihilator(space, mode_id):
    """Matrix of a(mode): removes one particle of the given mode.

    Fermion columns carry the canonical-order sign; boson columns carry
    the sqrt(k) factor where k is the occupation before removal.
    """
    fermionic = space.is_fermion(mode_id)
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    for col, state in enumerate(space.basis):
        if fermionic:
            hit = _remove_fermion(space, state, mode_id)
            if hit is None:
                continue
            target, sign = hit
            mat[space.index_of(target), col] = sign
        else:
            k = state.count_of(mode_id)
            if k == 0:
                continue
            target = _with_boson_count(state, mode_id, k - 1)
            mat[space.index_of(target), col] = np.sqrt(k)
    return OperatorMatrix(space, mat)


def creator(space, mode_id):
    """Matrix of a(mode)*: adds one particle of the given mode.

    Built directly from the defining action; agreement with the adjoint
    of annihilator is a tested identity.  Any column at total count s
    maps to zero (cutoff boundary), as does fermion double occupation.
    """
    fermionic = space.is_fermion(mode_id)
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    for col, state in enumerate(space.basis):
        if state.total >= space.cutoff_s:
            continue
        if fermionic:
            hit = _insert_fermion(space, state, mode_id)
            if hit is None:
                continue
            target, sign = hit
            mat[space.index_of(target), col] = sign
        else:
            k = state.count_of(mode_id)
            target = _with_boson_count(state, mode_id, k + 1)
            mat[space.index_of(target), col] = np.sqrt(k + 1)
    return OperatorMatrix(space, mat)


def commutator(a, b):
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def anticommutator(a, b):
    """{A, B} = AB + BA."""
    return a @ b + b @ a


def ac_operator(space, mode_id, alpha):
    """Hermitian combination alpha*a + conj(alpha)*a* for one mode, built
    as op + op* from op = alpha*a (a* is exactly the adjoint of a)."""
    op = complex(alpha) * annihilator(space, mode_id)
    return op + op.adjoint()


def number_of(mode_id, state):
    """Occupation count of one mode in a state."""
    return state.count_of(mode_id)


def number_operator(space, mode_id):
    """Diagonal occupation-number matrix for one mode."""
    diag = [state.count_of(mode_id) for state in space.basis]
    return OperatorMatrix(space, np.diag(diag).astype(complex))
