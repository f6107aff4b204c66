"""Hermitian eigendecomposition with multiplicity grouping, and the
action of exp(igH) on one vector.

Eigenvalues are grouped into clusters (one per distinct eigenvalue up to
the grouping tolerance), with orthonormal group bases, spectral
projectors, reconstruction and the unitary exponential exp(iH).
`grouped_union` groups a spectrum given as values with counts by the
same rule, with no matrix.
`apply_unitary_exp` needs no decomposition: it sums a Chebyshev series
of products with the H it is given, whole or a caller's block of it.
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


def _canonical_phase(vectors):
    """Rotate each column so its first nonzero entry is real positive;
    columns with no entry above 1e-12 are left as they are."""
    big = np.abs(vectors) > 1e-12
    pivot = vectors[big.argmax(0), np.arange(vectors.shape[1])]
    pivot[~big.any(0)] = 1
    # hypot rounds like the scalar abs(); the vectorized np.abs on complex
    # arrays can differ in the last bit
    return vectors * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


def _group_bounds(w, group_tol):
    """[0, each group's first index after the first, len(w)] for ascending
    values w: two neighbours join one group iff their gap is at most
    group_tol * max(1, spectral radius).  A gap past the largest float
    is inf, which splits its neighbours as its true value would.  group_tol
    must be finite and positive."""
    if not 0 < group_tol < np.inf:  # NaN fails both
        raise ValueError("group_tol must be finite and positive")
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    with np.errstate(over="ignore"):
        gaps = np.diff(w)
    return [0, *(np.flatnonzero(gaps > group_tol * scale) + 1).tolist(), len(w)]


def _group_means(w, counts, starts):
    """(means, totals) of the groups of ascending values w that begin at
    `starts`, w[k] counted counts[k] times: each group's number of copies
    and its count-weighted mean, the sum over its copies divided by their
    number.  Where the copies are finite but that sum overflows, the group
    is summed again scaled by a power of two (exact, as long as nothing
    underflows) and its mean clipped to the group's values, as the exact
    mean is: so a mean is finite whenever its copies are, and where the
    plain mean is finite it is that mean bit for bit."""
    starts = np.asarray(starts)
    totals = np.add.reduceat(counts, starts)
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduceat(w * counts, starts) / totals
    ends = np.append(starts[1:], len(w))
    low, high = w[starts], w[ends - 1]
    over = ~np.isfinite(means) & np.isfinite(low) & np.isfinite(high)
    if over.any():
        _, exponents = np.frexp(np.maximum(-low, high))  # |w| < 2^e in the group
        scaled = np.ldexp(w, -np.repeat(exponents, ends - starts)) * counts
        inside = np.clip(
            np.add.reduceat(scaled, starts) / totals,
            np.ldexp(low, -exponents),
            np.ldexp(high, -exponents),
        )
        means = np.where(over, np.ldexp(inside, exponents), means)
    return means, totals


def grouped_union(values, counts, group_tol=DEFAULT_GROUP_TOL):
    """(value, multiplicity) of each group, ascending, of the spectrum that
    holds values[k] counts[k] times, grouped by `eigh`'s rule.  A group's
    value is its count-weighted mean (`_group_means`), finite whenever the
    values are.  There must be a value, and no count may be 0."""
    order = np.argsort(values, kind="stable")
    w, m = np.asarray(values, dtype=float)[order], np.asarray(counts)[order]
    means, totals = _group_means(w, m, _group_bounds(w, group_tol)[:-1])
    return list(zip(means.tolist(), totals.tolist()))


def eigh(h, group_tol=DEFAULT_GROUP_TOL):
    """Decompose a Hermitian matrix, clustering near-equal eigenvalues.

    Two raw eigenvalues join one group iff their gap is at most
    group_tol * max(1, spectral radius); a group's value is the mean of
    its eigenvalues (`_group_means`).  Raises NotHermitian when an entry
    is not finite or the max-abs asymmetry exceeds HERMITICITY_TOL *
    max(1, largest |entry|).
    """
    mat = h.mat if isinstance(h, OperatorMatrix) else np.asarray(h, dtype=complex)
    if not np.isfinite(mat).all():
        raise NotHermitian("matrix has non-finite entries")
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(mat))):
        raise NotHermitian("matrix is not Hermitian within tolerance")

    w, v = np.linalg.eigh(mat)
    # the phase acts column by column, so one call serves every group
    v = _canonical_phase(v)
    bounds = _group_bounds(w, group_tol)
    means, _ = _group_means(w, np.ones(len(w), dtype=np.int64), bounds[:-1])
    groups = tuple(
        EigenGroup(value, k - start, v[:, start:k])
        for value, start, k in zip(means.tolist(), bounds, bounds[1:])
    )
    return SpectralDecomposition(groups, mat.shape[0])


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


BESSEL_TOL = 1e-17


def _bessel_orders(z):
    """[J_0(z), ..., J_{K-1}(z)] for z > 0, K the first order above z with
    |J_K(z)| < BESSEL_TOL.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    far enough past K that its error there is negligible and normalized
    by J_0 + 2 (J_2 + J_4 + ...) = 1.
    """
    if z < 2 * BESSEL_TOL:  # J_1(z) ~ z/2 is below the cut and J_0(z) rounds to 1
        return np.ones(1)
    top = int(z + 20 * z ** (1 / 3)) + 40
    j = [0.0] * (top + 2)  # Python floats: numpy scalar indexing costs more
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2 * k / z * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # rescale before the recurrence overflows
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
    j = np.array(j)
    j /= j[0] + 2 * j[2::2].sum()  # numpy's pairwise sum: a loop sum rounds otherwise
    orders = np.arange(len(j))
    return j[: np.flatnonzero((orders > z) & (np.abs(j) < BESSEL_TOL))[0]]


# power steps on |H| and on |H| + I after w = 1 in the Collatz–Wielandt bound
_POWER_STEPS = 3


class _Rows:
    """H's entries by row, in the space's numbering: `starts` marks each
    row's first entry (entries are in (row, col) order) and `filled` the
    rows that have one."""

    def __init__(self, h):
        self.h = h
        self.starts = np.flatnonzero(np.diff(h.rows, prepend=-1))
        self.filled = h.rows[self.starts]

    def product(self, data, vector):
        """The matrix with entries `data` at H's positions (H itself for
        `h.data`) applied to a vector: one reduceat over the row starts;
        rows with no entry get 0."""
        sums = np.add.reduceat(data * vector[self.h.cols], self.starts)
        out = np.zeros(len(vector), dtype=sums.dtype)
        out[self.filled] = sums
        return out

    def bound(self):
        """Collatz–Wielandt bound min_w max_j (|H| w)_j / w_j over w = 1
        and _POWER_STEPS power steps from it, both on |H| and on |H| + I:
        at least the spectral radius (rho(H) <= rho(|H|) <= that max for
        any w > 0); w = 1 gives the largest row sum of |entries|.  Steps
        on |H| alone stall when |H| is periodic, with eigenvalues rho and
        -rho; |H| + I has the same Perron vector and no other eigenvalue
        of its size.  Rows with no entry are left out of the ratio; 0
        when H has none."""
        if not len(self.h.data):
            return 0.0
        size = np.abs(self.h.data)
        bound = np.inf
        for shift in (0, 1):  # the steps on |H|, then on |H| + I
            w = np.ones(self.h.space.dimension)
            for _ in range(_POWER_STEPS + 1):
                step = self.product(size, w)
                bound = min(bound, float(np.max(step[self.filled] / w[self.filled])))
                w = step + shift * w
                w /= w.max()
        return bound


def apply_unitary_exp(h, vector, coupling=1.0):
    """exp(i g H) v for a Hermitian OperatorMatrix H, without decomposing H.

    Chebyshev series (Tal-Ezer & Kosloff 1984) over H's entries as given:
    with rho the Collatz–Wielandt bound on H, x = H / rho and z = |g| rho,
    exp(i z x) = J_0(z) + 2 sum_k i^k J_k(z) T_k(x), (-i)^k when g < 0,
    and T_k(x) v from T_{k+1} = 2 x T_k - T_{k-1}.  An amplitude that no
    chain of H's entries links to v stays exactly 0, so a caller restricts
    the series by passing H's block on the kets it wants (`scatter_column`
    passes the in-ket's (-1)^N sector).  Costs about z + 12 z^(1/3)
    products with H (31 at z = 7.05, the bare two-particle column on its
    block at r=2, s=3, dim 1,330, where ||H||_1 is 32.1, 25.0 on that
    block).
    """
    cur = np.array(vector, dtype=complex)  # a copy: the recurrence writes over it
    rows = _Rows(h)
    rho = rows.bound()
    z = abs(coupling) * rho
    if z == 0:
        return cur
    bessel = _bessel_orders(z)
    turns = (1, 1j, -1, -1j) if coupling > 0 else (1, -1j, -1, 1j)  # (+-i)^k
    twice_x = h.data * (2 / rho)
    total = bessel[0] * cur
    prev, term = np.empty_like(cur), np.empty_like(cur)  # T_{k+1} overwrites T_{k-1}
    for k in range(1, len(bessel)):
        step = rows.product(twice_x, cur)
        if k == 1:
            np.multiply(0.5, step, out=prev)
        else:
            np.subtract(step, prev, out=prev)
        prev, cur = cur, prev
        total += np.multiply(2 * turns[k % 4] * bessel[k], cur, out=term)
    return total
