"""Annihilation/creation operator matrices and AC-operator algebra.

Every operator is a complex matrix on a FockSpace, stored as its nonzero
entries; `mat` is the dense view.

a is built once per space: lower one column of the occupation array by
one and look the lowered rows up among the kets; a* is its transpose.
Exchange rule: `_anticommute` alone says which pairs of modes
anticommute; every other pair commutes.  Removing (or inserting) mode j
takes the sign (-1)^k, k the number of occupied modes ahead of j (in
mode id order) that anticommute with it.
"""

import numpy as np

from .errors import SpaceMismatch
from .fock import Statistics


class OperatorMatrix:
    """Complex square matrix tagged with the space it acts on.

    Stored as its nonzero entries: rows, cols and data, sorted by
    (row, col), each position at most once and no stored zero.
    `OperatorMatrix(space, dense)` takes the nonzeros of a dense array.
    """

    __slots__ = ("space", "rows", "cols", "data")

    def __init__(self, space, dense):
        dense = np.asarray(dense, dtype=complex)
        n = space.dimension
        if dense.shape != (n, n):
            raise ValueError(f"matrix shape {dense.shape} does not match dim {n}")
        rows, cols = np.nonzero(dense)
        self.space, self.rows, self.cols, self.data = space, rows, cols, dense[rows, cols]

    @classmethod
    def _sorted(cls, space, rows, cols, data):
        """Operator of entries already in (row, col) order, each position
        once; zero entries are dropped."""
        if not data.all():
            keep = data != 0
            rows, cols, data = rows[keep], cols[keep], data[keep]
        op = cls.__new__(cls)
        op.space, op.rows, op.cols, op.data = space, rows, cols, data
        return op

    @classmethod
    def _summed(cls, space, *parts):
        """Operator of the (keys, data) entries of every part, in any order,
        key row * dim + col: repeated positions are summed in the order
        given, then zeros are dropped.  A lone part is merged uncopied."""
        keys, data = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        keys, data = _merge_terms(keys, data)
        rows, cols = np.divmod(keys, space.dimension)
        return cls._sorted(space, rows, cols, data)

    @property
    def mat(self):
        """Dense complex array of the operator."""
        n = self.space.dimension
        dense = np.zeros((n, n), dtype=complex)
        dense[self.rows, self.cols] = self.data
        return dense

    def __add__(self, other):
        return operator_sum(self.space, [self, other])

    def __sub__(self, other):
        return self + -other

    def _product_terms(self, other):
        """(keys, data) of every term A_ik B_kj of self @ other, key
        i * dim + j, by row join: each entry (i, k) of self meets every
        entry (k, j) of other.  Terms of one (i, j) come in ascending k."""
        if other.space is not self.space:
            raise SpaceMismatch("operators act on different spaces")
        n = self.space.dimension
        count, pick = _row_join(self.cols, other.rows, n)
        return (
            (self.rows * n).repeat(count) + other.cols[pick],
            self.data.repeat(count) * other.data[pick],
        )

    def __matmul__(self, other):
        return self._summed(self.space, self._product_terms(other))

    def __mul__(self, scalar):
        return self._sorted(self.space, self.rows, self.cols, scalar * self.data)

    __rmul__ = __mul__

    def __neg__(self):
        return self._sorted(self.space, self.rows, self.cols, -self.data)

    def adjoint(self):
        order = np.argsort(self.cols * self.space.dimension + self.rows)
        return self._sorted(
            self.space, self.cols[order], self.rows[order], self.data[order].conj()
        )

    def one_norm(self):
        """Largest column sum of |entries|; bounds the spectral radius of
        a Hermitian operator."""
        sums = np.bincount(self.cols, np.abs(self.data), self.space.dimension)
        return float(sums.max(initial=0.0))


def _merge_terms(keys, data):
    """(keys, data) with repeated keys summed in the order given, keys
    ascending.  One stable sort, then one reduceat over the runs of equal
    keys, so a position's sum depends only on its terms and their order."""
    order = keys.argsort(kind="stable")
    keys, data = keys[order], data[order]
    del order  # free it before the runs are summed
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():
        starts = first.nonzero()[0]
        data = np.add.reduceat(data, starts)
        keys = keys[starts]
    return keys, data


def _row_join(cols, rows, n):
    """(count, pick): the row join of entries in columns `cols` with
    entries in ascending rows `rows`, n the dimension.  Entry e meets the
    count[e] entries whose row is cols[e], in their order; pick lists
    them, entry by entry."""
    ptr = rows.searchsorted(np.arange(n + 1))
    start = ptr[cols]
    count = ptr[cols + 1] - start
    pick = np.arange(count.sum()) + (start - (count.cumsum() - count)).repeat(count)
    return count, pick


def _anticommute(a, b):
    """Whether modes a and b anticommute: two fermions of one species,
    equal (block, mass), so also each fermion with itself.  Every other
    pair commutes: the two blocks of `build_roster` even at equal mass."""
    return (
        a.statistics is b.statistics is Statistics.FERMION
        and (a.block, a.mass) == (b.block, b.mass)
    )


def zero(space):
    empty = np.zeros(0, dtype=np.intp)
    return OperatorMatrix._sorted(space, empty, empty, np.zeros(0, dtype=complex))


def annihilator(space, mode_id):
    """Matrix of a(mode): removes one particle of the given mode.

    Its entries are built once per space and kept there as read-only
    arrays, which every later call wraps.  Column c gets (-1)^k sqrt(n)
    at the ket whose occupations are column c's with mode j's count n
    lowered by one, where k counts the occupied modes ahead of j that
    anticommute with it.  A lowered row that is no ket (an empty mode)
    gives no entry.
    """
    kept = space._annihilators.get(mode_id)
    if kept is not None:
        return OperatorMatrix._sorted(space, *kept)
    mode = space.mode(mode_id)
    occ = space.occupations
    lowered = occ.copy()
    lowered[:, mode_id] -= 1
    rows = space.find_rows(lowered)
    cols = np.flatnonzero(rows >= 0)
    values = np.sqrt(occ[cols, mode_id])
    if _anticommute(mode, mode):  # only a fermion takes a sign
        ahead = [m.id for m in space.modes[:mode_id] if _anticommute(m, mode)]
        values = np.where(occ[cols][:, ahead].sum(1) % 2, -values, values)
    rows = rows[cols]
    order = np.argsort(rows)  # distinct columns land on distinct rows
    kept = rows[order], cols[order], values[order].astype(complex)
    for array in kept:
        array.flags.writeable = False  # shared by every call on this space
    space._annihilators[mode_id] = kept
    return OperatorMatrix._sorted(space, *kept)


def creator(space, mode_id):
    """Matrix of a(mode)*: adds one particle of the given mode.

    The annihilator's entries with rows and columns swapped, with no
    lookup of its own: every entry is real, so that is the adjoint.  Any
    column at total count s maps to zero (cutoff boundary), as does
    fermion double occupation.
    """
    a = annihilator(space, mode_id)
    order = np.argsort(a.cols)
    return OperatorMatrix._sorted(space, a.cols[order], a.rows[order], a.data[order])


def commutator(a, b):
    """[A, B] = AB - BA, summed entry by entry in one pass."""
    keys, data = b._product_terms(a)
    return OperatorMatrix._summed(a.space, a._product_terms(b), (keys, -data))


def anticommutator(a, b):
    """{A, B} = AB + BA, summed entry by entry in one pass."""
    return OperatorMatrix._summed(a.space, a._product_terms(b), b._product_terms(a))


def operator_sum(space, ops):
    """Sum of a list of operators on one space, summed entry by entry in
    one pass; the zero operator for an empty list."""
    if not ops:
        return zero(space)
    for op in ops:
        if op.space is not space:
            raise SpaceMismatch("operators act on different spaces")
    n = space.dimension
    return OperatorMatrix._summed(space, *((op.rows * n + op.cols, op.data) for op in ops))


def ac_operator(space, mode_id, alpha):
    """Hermitian combination alpha*a + conj(alpha)*a* for one mode, built
    as op + op* from the entries of op = alpha*a (a* is exactly the
    adjoint of a)."""
    a = annihilator(space, mode_id)
    data = complex(alpha) * a.data
    n = space.dimension
    return OperatorMatrix._summed(
        space, (a.rows * n + a.cols, data), (a.cols * n + a.rows, data.conj())
    )


# verify's exchange-rule rows per statistics, in report order: exchange
# relations, number relation, then (bosons only) the boundary rule
_ROWS = {
    Statistics.FERMION: (
        "fermion exchange relations",
        "fermion number relation (off boundary)",
    ),
    Statistics.BOSON: (
        "boson commutators",
        "boson CCR (off boundary)",
        "boson boundary rule [a, a*] = -N",
    ),
}


def algebra_violations(space, ladders, alpha):
    """{identity name: max violation} of `toyqft verify`'s identities, in
    report order, from the space's ladders X_0 ... X_{2n-1} = a_0 ...
    a_{n-1}, a*_0 ... a*_{n-1} and one alpha per mode.

    Every row comes from one batch of terms (`_verify_terms`) and two
    merges: one sums every operator a row checks, the other eta_i -
    adjoint(eta_i).  Each position sums the same terms in the same order
    as the operator algebra above, so every maximum is bit for bit the
    one-operator-at-a-time value.  The batch holds O(n^2 dim) terms at once.
    """
    modes = space.modes
    present = {m.statistics for m in modes}
    rows = ["creator = adjoint(annihilator)", "AC-operator Hermitian"]
    rows += [row for st, names in _ROWS.items() if st in present for row in names]
    n, dim = len(modes), space.dimension
    if not n:
        return dict.fromkeys(rows, 0.0)

    # Bracketed pairs of same-statistics modes i, j: (a_i, a_j), (a_i, a*_j)
    # and, for bosons, (a*_i, a*_j); the anticommutator where
    # `_anticommute` says so, else the commutator.
    boson = np.array([m.statistics is Statistics.BOSON for m in modes])
    same = boson[:, None] == boson
    used = np.zeros((2 * n, 2 * n), dtype=bool)
    used[:n, :n] = used[:n, n:] = same
    used[n:, n:] = same & boson[:, None]
    stacked = np.arange(2 * n) % n  # the mode of each stacked ladder
    anti = np.array([[_anticommute(a, b) for b in modes] for a in modes])
    anti = anti[stacked[:, None], stacked]
    off = space.occupations.sum(1) < space.cutoff_s
    area = dim * dim
    keys, data = _merge_terms(*_verify_terms(ladders, alpha, used, anti, off))

    # eta_i - adjoint(eta_i) from eta_i's merged entries, the order in
    # which `eta - eta.adjoint()` sums them
    lo, hi = keys.searchsorted((n * area, 2 * n * area))
    eta_keys, eta = keys[lo:hi], data[lo:hi]
    slot, rest = np.divmod(eta_keys, area)
    _, hermitian = _merge_terms(
        np.concatenate([eta_keys, slot * area + rest % dim * dim + rest // dim]),
        np.concatenate([eta, -eta.conj()]),
    )

    # the row each slot counts toward in columns below the cutoff and in
    # columns at it, -1 for none (eta_i's slots: its row is checked above)
    at = {row: k for k, row in enumerate(rows)}
    exchange, number = (
        np.array([at[_ROWS[m.statistics][k]] for m in modes]) for k in (0, 1)
    )
    pair_off = np.full((2 * n, 2 * n), -1, dtype=np.int8)
    pair_off[:n, :n] = pair_off[n:, n:] = exchange[:, None]
    pair_off[:n, n:] = number[:, None]
    pair_cut = pair_off.copy()
    pair_cut[:n, n:] = -1
    bosons = np.flatnonzero(boson)
    pair_cut[bosons, n + bosons] = at.get(_ROWS[Statistics.BOSON][2], -1)
    slot_off, slot_cut = (
        np.concatenate([np.zeros(n, np.int8), np.full(n, -1, np.int8), pairs.ravel()])
        for pairs in (pair_off, pair_cut)
    )
    slot = keys // area
    row = np.where(off[keys % dim], slot_off[slot], slot_cut[slot])
    counted = row >= 0
    worst = np.zeros(len(rows))
    np.maximum.at(worst, row[counted], np.abs(data[counted]))
    worst[1] = np.abs(hermitian).max(initial=0.0)
    return dict(zip(rows, worst.tolist()))


def _verify_terms(ladders, alpha, used, anti, off):
    """(keys, data) of the terms of every operator verify checks, before
    merging: key (slot * dim + row) * dim + col.

    Slot i holds a*_i - adjoint(a_i), slot n + i holds eta_i = alpha_i a_i
    + conj(alpha_i) a*_i, and slot 2n + 2n p + q the bracket of X_p and
    X_q where used[p, q]: its X_p X_q terms, then its X_q X_p terms,
    negated unless anti[p, q].  Last, [a_i, a*_i] gets -1 on its diagonal
    in the columns below the cutoff (off) and N_i in the others, zeros
    left out.  A position's terms come in the order `operator_sum`,
    `commutator`, `anticommutator` and `mixed - eye` or `mixed + N` give
    them.
    """
    space = ladders[0].space
    n, dim = len(alpha), space.dimension
    area, width = dim * dim, 2 * n
    tag = np.arange(width).repeat([len(x.data) for x in ladders])
    r, c, v = (
        np.concatenate([getattr(x, f) for x in ladders]) for f in ("rows", "cols", "data")
    )
    mode = tag % n
    split = np.count_nonzero(tag < n)  # first creator entry
    mixed = width + np.arange(n) * (width + 1) + n  # the slots of [a_i, a*_i]
    diagonal = np.where(off, -1, space.occupations.T)

    # every product X_p X_q by one row join; in each (p, q, row, col) its
    # terms come in ascending inner index, as in `_product_terms`
    by_row = np.argsort(r, kind="stable")
    count, pick = _row_join(c, r[by_row], dim)
    pick = by_row[pick]
    position = (r * dim).repeat(count) + c[pick]
    product = v.repeat(count) * v[pick]
    left, right = tag.repeat(count), tag[pick]
    del pick  # the join's index arrays are O(n^2 dim): free them early
    pair, swapped = left * width + right, right * width + left
    del left, right
    forward, backward = used.ravel()[pair], used.ravel()[swapped]
    back = product[backward]
    data = np.concatenate([
        v[split:],
        -v[:split].conj(),
        np.where(tag < n, alpha[mode], alpha[mode].conj()) * v,
        product[forward],
        np.where(anti.ravel()[swapped[backward]], back, -back),
        diagonal[diagonal != 0],
    ])
    del product, back  # free the products before the keys are built
    keys = np.concatenate([
        (mode * area + r * dim + c)[split:],
        (mode * area + c * dim + r)[:split],
        (n + mode) * area + r * dim + c,
        (width + pair[forward]) * area + position[forward],
        (width + swapped[backward]) * area + position[backward],
        ((mixed * area)[:, None] + np.arange(dim) * (dim + 1))[diagonal != 0],
    ])
    return keys, data
