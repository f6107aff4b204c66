"""Free fields, interaction fields, self-interactions, form classification.

A free field is a sum of AC-operators, specified as (mode, coefficient)
terms so the same spec instantiates on any compatible space.  The
interaction of two fields is their symmetrized product.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DuplicateTerm, NotAForm
from .ladder import ac_operator, anticommutator, operator_sum


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


def classify_form(space, vector, p_mode, q_mode, tol=1e-9):
    """Classify a vector by its (p_mode, q_mode) occupation pattern.

    Components with |amplitude| > tol contribute.  All contributing kets
    must agree in every occupation other than the two tracked modes;
    otherwise the vector has no well-defined form and NotAForm is raised.
    """
    if len(vector) != space.dimension:
        raise ValueError("vector dimension does not match space")
    if tol <= 0:
        raise ValueError("tol must be positive")

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
