"""Annihilation/creation operator matrices and AC-operator algebra.

Everything is a dense complex matrix on a FockSpace.

a and a* are one construction: shift one column of the space's
occupation array by -1 or +1 and look each shifted row up among the
kets.  Fermion sign rule: kets are stored with fermion ids ascending,
and the sign of removing (or inserting) mode j is (-1)^k where k is the
number of occupied fermions of j's `fermion_family` preceding j in that
canonical order.  Fermions of distinct families commute, matching the
symmetric interchange of distinguishable particles in mixed spaces.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch
from .fock import Statistics, fermion_family


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


def _ladder(space, mode_id, step):
    """Matrix that moves each ket's count of one mode by step (-1 or +1).

    Column c gets (-1)^k sqrt(max(n_before, n_after)) at the ket whose
    occupations are column c's shifted by step, where k counts the
    occupied same-family fermions ahead of a fermion mode.  A shifted row
    that is no ket (empty mode, doubled fermion, count past the cutoff)
    gives no entry.
    """
    mode = space.mode(mode_id)
    occ = space.occupations
    shifted = occ.copy()
    shifted[:, mode_id] += step
    rows = space.find_rows(shifted)
    cols = np.flatnonzero(rows >= 0)
    values = np.sqrt(np.maximum(occ[cols, mode_id], shifted[cols, mode_id]))
    if mode.statistics is Statistics.FERMION:
        family = fermion_family(mode)
        ahead = [
            m.id for m in space.modes[:mode_id]
            if m.statistics is Statistics.FERMION
            and fermion_family(m) == family
        ]
        values = np.where(occ[cols][:, ahead].sum(1) % 2, -values, values)
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    mat[rows[cols], cols] = values
    return OperatorMatrix(space, mat)


def annihilator(space, mode_id):
    """Matrix of a(mode): removes one particle of the given mode.

    Fermion columns carry the canonical-order sign; boson columns carry
    the sqrt(k) factor where k is the occupation before removal.
    """
    return _ladder(space, mode_id, -1)


def creator(space, mode_id):
    """Matrix of a(mode)*: adds one particle of the given mode.

    Agreement with the adjoint of annihilator is a tested identity.  Any
    column at total count s maps to zero (cutoff boundary), as does
    fermion double occupation.
    """
    return _ladder(space, mode_id, +1)


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


def number_operator(space, mode_id):
    """Diagonal occupation-number matrix for one mode."""
    space.mode(mode_id)
    return OperatorMatrix(
        space, np.diag(space.occupations[:, mode_id]).astype(complex)
    )
