"""Free and interaction fields, self-interactions, spectra, form classification.

A free field is a sum of AC-operators, specified as (mode, coefficient)
terms so the same spec instantiates on any compatible space.  The
interaction of two fields is their symmetrized product.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DuplicateTerm, NotAForm, NotFinite
from .fock import Statistics, build_space, count_kets
from .ladder import ac_operator, anticommutator, operator_sum
from .spectral import DEFAULT_GROUP_TOL, grouped_union


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


@dataclass(frozen=True)
class FormClassification:
    """Type/form of a vector in the occupation plane of two modes.

    form is the tuple of (i, j) occupation pairs of the contributing
    kets, in basis order; type_t is its length.
    """

    type_t: int
    form: tuple
    parity: Parity


def free_field(space, spec):
    """Sum of AC-operators over a (mode id, alpha) term list."""
    seen = set()
    for mode_id, _ in spec:
        if mode_id in seen:
            raise DuplicateTerm(f"mode {mode_id} listed twice")
        seen.add(mode_id)
    return operator_sum(
        space, [ac_operator(space, mode_id, alpha) for mode_id, alpha in spec]
    )


def interaction_field(phi, psi):
    """Symmetrized product (phi psi + psi phi) / 2; Hermitian for
    Hermitian inputs and symmetric in its arguments."""
    return 0.5 * anticommutator(phi, psi)


def self_interaction(phi):
    """phi squared; positive semidefinite for Hermitian phi."""
    return phi @ phi


# finite alphas can still overflow the operator or its spectrum: that is
# one NotFinite, with no warning
@np.errstate(over="ignore", invalid="ignore")
def field_spectrum(modes, cutoff, terms, terms2=None, square=False,
                   group_tol=DEFAULT_GROUP_TOL):
    """`grouped_union` of the spectrum of the field `terms` ((mode id,
    alpha) pairs; its square if `square`), or of ½{phi, psi} with the
    field `terms2`, on the space of `modes` at `cutoff`, diagonalizing
    only the modes the fields name.  Raises NotFinite if a value is not.

    The operator keeps every other (spectator) mode's count.  On the kets
    of a spectator occupation of k particles it is the named modes' own
    operator at cutoff cutoff - k, up to a sign on each named fermion
    that conjugating by its (-1)^N removes.  So the spectrum is the union
    over budgets b of the named operator at cutoff b, which the leading
    blocks of the fields at `cutoff` give (kets ascend in total count),
    counted once per spectator occupation of cutoff - b particles; the
    top budget, the named space's largest total, takes every occupation
    of at most cutoff - top.  A field moves one count by 1, so it is a
    block P from odd-total to even-total kets and P* back: phi is ±σ, the
    singular values of P, and |#even - #odd| zeros; phi² is σ² twice and
    those zeros; ½{phi, psi} is ½(PQ* + QP*) and ½(P*Q + Q*P).
    """
    named = sorted({mode_id for mode_id, _ in [*terms, *(terms2 or ())]})
    local = {mode_id: k for k, mode_id in enumerate(named)}
    space = build_space([replace(modes[i], id=k) for k, i in enumerate(named)], cutoff)
    totals = space.occupations.sum(1)  # ascending
    even, odd = np.flatnonzero(totals % 2 == 0), np.flatnonzero(totals % 2)
    p, q = (
        None if spec is None
        else free_field(space, [(local[i], a) for i, a in spec]).mat[np.ix_(even, odd)]
        for spec in (terms, terms2)
    )
    top = int(totals[-1])
    spectators = [m.statistics for m in modes if m.id not in local]
    fermions = spectators.count(Statistics.FERMION)

    def at_most(most):  # spectator occupations of at most `most` particles
        return max(count_kets(fermions, len(spectators) - fermions, most), default=0)

    counts = [at_most(cutoff - b) - at_most(cutoff - b - 1) for b in range(top)]
    counts.append(at_most(cutoff - top))
    values, weights = [], []
    for budget, count in enumerate(counts):
        if not count:
            continue
        size = totals.searchsorted(budget, side="right")
        rows, cols = even.searchsorted(size), odd.searchsorted(size)
        p_b = p[:rows, :cols]
        if q is None:
            blocks = [p_b]
        else:
            q_b = q[:rows, :cols]
            on_even, on_odd = p_b @ q_b.conj().T, p_b.conj().T @ q_b
            blocks = [0.5 * (b + b.conj().T) for b in (on_even, on_odd)]
        if not all(np.isfinite(block).all() for block in blocks):
            raise NotFinite("spectrum is not finite")
        if q is None:
            sigma = np.linalg.svd(p_b, compute_uv=False)
            pair = (sigma * sigma,) * 2 if square else (-sigma, sigma)
            w = np.concatenate([*pair, np.zeros(abs(rows - cols))])
        else:
            w = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
        values.append(w)
        weights.append(np.full(len(w), count))
    groups = grouped_union(np.concatenate(values), np.concatenate(weights), group_tol)
    if not np.isfinite([value for value, _ in groups]).all():
        raise NotFinite("spectrum is not finite")
    return groups


def classify_form(space, vector, p_mode, q_mode, tol=1e-9):
    """Classify a vector by its (p_mode, q_mode) occupation pattern.

    Components with |amplitude| > tol contribute.  All contributing kets
    must agree in every occupation other than the two tracked modes;
    otherwise the vector has no well-defined form and NotAForm is raised.
    """
    if len(vector) != space.dimension:
        raise ValueError("vector dimension does not match space")
    if not 0 < tol < np.inf:  # NaN fails both
        raise ValueError("tol must be finite and positive")

    tracked = [space.mode(p_mode).id, space.mode(q_mode).id]  # UnknownMode
    others = [m.id for m in space.modes if m.id not in tracked]
    v = np.asarray(vector)
    occ = space.occupations[np.hypot(v.real, v.imag) > tol]
    pairs, spectators = occ[:, tracked], occ[:, others]
    if (spectators != spectators[:1]).any():
        raise NotAForm("contributing kets differ outside the tracked modes")

    odd = set((pairs.sum(1) % 2).tolist())
    parity = Parity.MIXED if len(odd) > 1 else Parity.ODD if odd == {1} else Parity.EVEN
    return FormClassification(len(pairs), tuple(map(tuple, pairs.tolist())), parity)
