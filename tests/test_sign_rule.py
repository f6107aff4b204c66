"""The exchange rule behind the spectra that criteria 5 and 8 claim.

Criterion 5 (`test_acceptance.py`) claims six-value spectra on the
3-fermion (8-dim) space for phi2 = alpha a0 + beta a1 + h.c. and for the
three-term field; criterion 8 claims that phi2^2 has (a - b)^2 x2,
a^2 + b^2 x4 and (a + b)^2 x2, with a = |alpha| and b = |beta|.  The
library's ladders obey the CAR, so phi2^2 = (a^2 + b^2) I and both
criteria fail.

The claims are what sign-twisted ladders give: a_j = s_j (lowering of
mode j), each s_j a +-1 function of the other two modes' occupations.
`TWIST` is one such triple: s_0 = +1, s_1 = -1 exactly when
n_0 = n_2 = 1, s_2 = -1 exactly when n_0 = 1.  Its a0 and a2
anticommute on every ket, but a0 and a1 anticommute only where n2 = 1
and commute where n2 = 0, and a1 and a2 anticommute only where n0 = 1.
So the claimed spectra are those of ladders that break the CAR on half
the kets.  Whether such a rule also gives criterion 4's 2-mode spectrum
depends on how it is carried to 2 modes: the triple's n2 = 1 slice
gives it, its n2 = 0 slice (mode 2 empty) does not.
"""

import numpy as np

from toyqft import OperatorMatrix, annihilator, self_interaction

from conftest import k_space
from test_acceptance import assert_spectrum, draws

# s_j as a function of the occupation rows n, one per column
TWIST = (
    lambda n: np.ones(len(n)),
    lambda n: np.where(n[:, 0] & n[:, 2], -1.0, 1.0),
    lambda n: np.where(n[:, 0], -1.0, 1.0),
)


def twisted_ladders(space):
    """Dense a_j = s_j (lowering of mode j): the CAR ladder's entries,
    all +-1, with the sign s_j of each column instead."""
    signs = [s(space.occupations) for s in TWIST]
    return [np.abs(annihilator(space, j).mat) * s for j, s in enumerate(signs)]


def field(space, ladders, coeffs):
    """OperatorMatrix of sum_j c_j a_j + h.c."""
    op = sum(c * a for c, a in zip(coeffs, ladders))
    return OperatorMatrix(space, op + op.conj().T)


def test_twist_gives_both_claims_of_criterion_5():
    space = k_space(3)
    ladders = twisted_ladders(space)
    for coeffs in draws(3):
        a, b, c = np.abs(coeffs)
        om = np.hypot(a, b)
        assert_spectrum(field(space, ladders, coeffs[:2]), [
            (-(a + b), 1), (-om, 2), (-abs(a - b), 1),
            (abs(a - b), 1), (om, 2), (a + b, 1),
        ])
        s2 = a * a + b * b + c * c
        shift = 2 * np.sqrt(b * b * (a * a + c * c))
        assert_spectrum(field(space, ladders, coeffs), [
            (-np.sqrt(s2 + shift), 1), (-np.sqrt(s2), 2),
            (-np.sqrt(s2 - shift), 1), (np.sqrt(s2 - shift), 1),
            (np.sqrt(s2), 2), (np.sqrt(s2 + shift), 1),
        ])


def test_twist_gives_criterion_8_square():
    space = k_space(3)
    ladders = twisted_ladders(space)
    for coeffs in draws(6):
        a, b = np.abs(coeffs[:2])
        phi2 = field(space, ladders, coeffs[:2])
        assert_spectrum(self_interaction(phi2), [
            ((a - b) ** 2, 2), (a * a + b * b, 4), ((a + b) ** 2, 2),
        ])


def _columns_vanish(*ops):
    """Per ket column, whether every operator's column is zero."""
    return ~np.any([op.any(0) for op in ops], axis=0)


def test_twist_breaks_the_car_on_half_the_kets():
    """Each ladder keeps {a_j, a_j*} = 1 and a_j^2 = 0.  Per ket (column),
    a pair anticommutes where {a_i, a_j} and {a_i, a_j*} vanish and
    commutes where [a_i, a_j] and [a_i, a_j*] vanish; the third mode's
    occupation, which no bracket of the pair changes, says which."""
    space = k_space(3)
    a = twisted_ladders(space)
    n = space.occupations
    for j in range(3):
        assert np.array_equal(a[j] @ a[j].T + a[j].T @ a[j], np.eye(8))
        assert not (a[j] @ a[j]).any()

    def relations(i, j):
        ai, aj, cj = a[i], a[j], a[j].T
        anti = _columns_vanish(ai @ aj + aj @ ai, ai @ cj + cj @ ai)
        comm = _columns_vanish(ai @ aj - aj @ ai, ai @ cj - cj @ ai)
        return anti, comm

    anti, _ = relations(0, 2)
    assert anti.all()
    for (i, j), k in (((0, 1), 2), ((1, 2), 0)):
        anti, comm = relations(i, j)
        occupied = n[:, k] == 1
        assert anti[occupied].all() and not anti[~occupied].all()
        assert comm[~occupied].all() and not comm[occupied].all()


def test_criterion_4_depends_on_the_2_mode_slice():
    """a0 and a1 of the triple on the 4 kets with n2 fixed, as ladders on
    the 2-mode space: the n2 = 1 slice gives criterion 4's spectrum
    (+-omega, twice each), the n2 = 0 slice the commuting one (+-a +-b)."""
    space, small = k_space(3), k_space(2)
    ladders = twisted_ladders(space)
    for n2 in (0, 1):
        rows = np.column_stack([small.occupations, np.full(small.dimension, n2)])
        kets = space.find_rows(rows)
        pair = [x[np.ix_(kets, kets)] for x in ladders[:2]]
        for alpha, beta in draws(2):
            a, b = abs(alpha), abs(beta)
            om = np.hypot(a, b)
            expected = (
                [(-om, 2), (om, 2)] if n2
                else [(-(a + b), 1), (-abs(a - b), 1), (abs(a - b), 1), (a + b, 1)]
            )
            assert_spectrum(field(small, pair, (alpha, beta)), expected)
