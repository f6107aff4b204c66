"""Hermitian eigendecomposition with multiplicity grouping.

Eigenvalues are grouped into clusters (one per distinct eigenvalue up to
the grouping tolerance), with orthonormal group bases, spectral
projectors, reconstruction and the unitary exponential exp(iH).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian
from .ladder import OperatorMatrix

DEFAULT_GROUP_TOL = 1e-8
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class EigenGroup:
    value: float
    multiplicity: int
    vectors: np.ndarray  # dim x multiplicity, orthonormal columns


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with multiplicities and bases."""

    groups: tuple
    dimension: int

    @property
    def eigenvalues(self):
        return [g.value for g in self.groups]

    @property
    def multiplicities(self):
        return [g.multiplicity for g in self.groups]

    def pairs(self):
        """(eigenvalue, multiplicity) list, ascending."""
        return [(g.value, g.multiplicity) for g in self.groups]

    def to_json(self):
        return [
            {"lambda": g.value, "multiplicity": g.multiplicity}
            for g in self.groups
        ]


def _canonical_phase(vectors):
    """Rotate each column so its first nonzero entry is real positive;
    columns with no entry above 1e-12 are left as they are."""
    big = np.abs(vectors) > 1e-12
    pivot = vectors[big.argmax(0), np.arange(vectors.shape[1])]
    pivot[~big.any(0)] = 1
    # hypot rounds like the scalar abs(); the vectorized np.abs on complex
    # arrays can differ in the last bit
    return vectors * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


def eigh(h, group_tol=DEFAULT_GROUP_TOL):
    """Decompose a Hermitian matrix, clustering near-equal eigenvalues.

    Two raw eigenvalues join one group iff their gap is at most
    group_tol * max(1, spectral radius).  Raises NotHermitian when an
    entry is not finite or the max-abs asymmetry exceeds the Hermiticity
    tolerance.
    """
    mat = h.mat if isinstance(h, OperatorMatrix) else np.asarray(h, dtype=complex)
    if group_tol <= 0:
        raise ValueError("group_tol must be positive")
    if not np.isfinite(mat).all():
        raise NotHermitian("matrix has non-finite entries")
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
        raise NotHermitian("matrix is not Hermitian within tolerance")

    w, v = np.linalg.eigh(mat)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    gap = group_tol * scale

    groups = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > gap:
            block = _canonical_phase(v[:, start:k])
            groups.append(
                EigenGroup(float(np.mean(w[start:k])), k - start, block)
            )
            start = k
    return SpectralDecomposition(tuple(groups), mat.shape[0])


def projectors(decomp):
    """Orthogonal projectors P_j onto each eigenspace."""
    return [g.vectors @ g.vectors.conj().T for g in decomp.groups]


def _spectral_sum(decomp, f):
    """Sum of f(lambda_j) P_j, as V diag(f(w)) V* with V the stacked group
    bases and w each group's value repeated over its multiplicity."""
    v = np.hstack([g.vectors for g in decomp.groups])
    w = np.repeat(decomp.eigenvalues, decomp.multiplicities)
    return (v * f(w)) @ v.conj().T


def reconstruct(decomp):
    """Sum of lambda_j P_j; recovers the decomposed matrix."""
    return _spectral_sum(decomp, lambda w: w)


def unitary_exp(decomp):
    """exp(iH) as sum of exp(i lambda_j) P_j; unitary."""
    return _spectral_sum(decomp, lambda w: np.exp(1j * w))
