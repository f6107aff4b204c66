"""Toy scattering: Hamiltonian densities, the time-slice-averaged
Hamiltonian, the scattering operator exp(iH) and transition probabilities.

The density at a lattice point is the interaction of two free fields,
one per roster block; the Hamiltonian averages the density over the
spatial ball of radius x0 at time x0, computed as the density at the
slice centre (x0, 0) masked entry-wise by the ball's average of the phase
by which a spatial translation rephases each pair of basis kets.  The
ball is symmetric under each reflection, so that average is real and
even (see `hamiltonian`).
"""

import functools

import numpy as np

from .errors import CouplingTooLarge
from .fields import interaction_field
from .fock import ParticleMode, Statistics
from .ladder import OperatorMatrix
from .spacetime import LatticePoint, _shell, _slice_classes, field_at
from .spectral import apply_unitary_exp, eigh, unitary_exp

# Largest |g|·‖H‖₁ that `scatter_column` accepts, H the block on the
# in-ket's (-1)^N sector that the series runs on.  exp(igH)|in> costs
# about |g|ρ products with H on the in-ket's kets, ρ ≤ ‖H‖₁ the bound the
# series scales by, so |g|·‖H‖₁ is a conservative ceiling on that cost.
COUPLING_BOUND = 1e4


def build_roster(mass1, mass2, r, statistics1=Statistics.BOSON,
                 statistics2=Statistics.BOSON):
    """One mode per point of each mass hyperboloid (p0 <= r): block 0 of
    mass1, then block 1 of mass2, each its own species.  Mode ids and
    momenta are deterministic."""
    modes = []
    blocks = [(mass1, statistics1, "a"), (mass2, statistics2, "b")]
    for block, (mass, stats, tag) in enumerate(blocks):
        for point in _shell(mass, r):
            p = point.as_tuple()
            modes.append(ParticleMode(len(modes), f"{tag}{p}", stats, mass, p, block))
    return modes


def _fields(space, x, r, m1, m2):
    """The fields of roster blocks 0 and 1 at lattice point x, of masses
    m1 and m2; `field_at` checks each block is its mass's shell at r."""
    blocks = ([mode.id for mode in space.modes if mode.block == b] for b in (0, 1))
    return [field_at(space, x, r, m, ids) for m, ids in zip((m1, m2), blocks)]


def hamiltonian_density(space, x, r, m1, m2):
    """Interaction of the two block fields at lattice point x."""
    return interaction_field(*_fields(space, x, r, m1, m2))


def _momentum_table(space):
    """(P, labeled): P[n] is ket n's summed 4-momentum, an unlabeled mode
    adding 0, and labeled[n] says ket n occupies no unlabeled mode."""
    occ = space.occupations
    labels = np.array([m.momentum or (0,) * 4 for m in space.modes], dtype=float)
    unlabeled = [m.momentum is None for m in space.modes]
    # in float64, through BLAS (int64 is not): exact, every partial sum <= s·r in size
    return (occ @ labels.reshape(-1, 4)).astype(np.int64), ~occ[:, unlabeled].any(1)


def hamiltonian(space, x0, r, m1, m2, kets=None):
    """Average of the density over the time-x0 slice {|x| <= x0}, as its
    block on `kets` (rows and columns; every ket by default).

    Field coefficients are phase(p, x) / p0 and a(p) lowers a ket's total
    4-momentum P by p, so tau(y + x) = D(x) tau(y) D(x)* exactly, with
    D(x) = diag(i^(-P_n.x)).  Shifting the slice centre y = (x0, 0) by
    (0, x), the average is tau(y) times R entry by entry, R_mn =
    avg_x i^((P_n - P_m).x) over the ball, needed only where tau(y) is
    nonzero.  The ball is symmetric under each reflection x_i -> -x_i, so
    R is real and even in each component of P_n - P_m.  Modes the fields
    do not move cancel in P_n - P_m there.

    With Q the projector on `kets`, the block Q tau(y) Q is
    ((phi Q)* (psi Q) + (psi Q)* (phi Q)) / 2 for the fields at y, and
    (phi Q)* = Q phi as phi is Hermitian entry for entry: so the left
    factors keep their entries in Q's rows, the right factors those in
    Q's columns, and the block holds exactly tau(y)'s terms there.
    """
    left = right = _fields(space, LatticePoint(x0), r, m1, m2)
    if kets is not None:
        inside = np.zeros(space.dimension, dtype=bool)
        inside[kets] = True
        left = [_entries(f, inside[f.rows]) for f in left]
        right = [_entries(f, inside[f.cols]) for f in right]
    # one part, concatenated first: the two products' terms are freed
    # before the merge sorts them
    tau = OperatorMatrix._summed(space, tuple(map(np.concatenate, zip(
        left[0]._product_terms(right[1]), left[1]._product_terms(right[0])
    ))))
    data = tau.data  # fresh: scaled and masked in place
    data *= 0.5
    data *= _slice_mask(space, x0, tau.rows, tau.cols)
    return OperatorMatrix._sorted(space, tau.rows, tau.cols, data)


def _entries(op, keep):
    """The operator of op's entries where keep is set."""
    return OperatorMatrix._sorted(op.space, op.rows[keep], op.cols[keep], op.data[keep])


@functools.cache
def _cosines():
    """cos(pi x.d / 2), which is 1, 0 or -1, for x and d in the 64 classes
    of spatial vectors mod 4, class 16 (v1 & 3) + 4 (v2 & 3) + (v3 & 3).
    Built on first use, so importing does no array work."""
    v = np.arange(64)[:, None] >> np.array([4, 2, 0]) & 3
    cosines = np.array([1, 0, -1, 0])[v @ v.T & 3]
    cosines.flags.writeable = False  # shared by every call
    return cosines


def _slice_table(x0):
    """R by class of d mod 4: with c_k the number of slice points x where
    x.d = k mod 4, entry class(d) is (c_0 - c_2) / |slice|.

    x.d mod 4 depends on x only through its class, so each class is
    turned once and counted as often as the slice holds it
    (`_slice_classes`): the same integers as counting point by point."""
    sizes = _slice_classes(x0)
    # times 1 / |slice|, not / |slice| (they differ in the last bit): numpy
    # divides complex numbers by a real one this way, so R rounds as the
    # complex per-point average does
    return sizes @ _cosines() * (1 / sizes.sum())


def _slice_mask(space, x0, rows, cols):
    """R at the entries (rows, cols), R_mn = avg_x i^((P_n - P_m).x) over
    the slice, read from `_slice_table` by the class of P_n - P_m mod 4.
    R is even in each component, and per 2-bit component a ^ b is
    +-(a - b) mod 4, so the class is the XOR of the two kets' classes."""
    momenta, _ = _momentum_table(space)
    code = (momenta[:, 1:] & 3) @ (16, 4, 1)
    return _slice_table(x0)[code[rows] ^ code[cols]]


def scattering_operator(h, coupling=1.0):
    """Unitary exp(i g H) via the spectral representation, as a full
    matrix.  `apply_unitary_exp` gives one column S|in> far more cheaply.

    The dimensionless coupling g (default 1) is an extension knob; the
    bare construction is exp(iH).
    """
    u = unitary_exp(eigh(coupling * h))
    return OperatorMatrix(h.space, u)


def scatter_column(space, x0, r, m1, m2, n_in, coupling=1.0):
    """S|in> = exp(igH)|in> (`apply_unitary_exp`) for the basis ket n_in,
    with H (`hamiltonian`) built only on the in-ket's (-1)^N sector: each
    field moves one count by 1, so H keeps it.  Raises CouplingTooLarge,
    before any product, if |g|·‖H‖₁ there exceeds COUPLING_BOUND."""
    parity = space.occupations.sum(1) % 2
    sector = np.flatnonzero(parity == parity[n_in])
    h = hamiltonian(space, x0, r, m1, m2, sector)
    scale = abs(coupling) * h.one_norm()
    if scale > COUPLING_BOUND:
        raise CouplingTooLarge(scale)
    e_in = np.zeros(space.dimension, dtype=complex)
    e_in[n_in] = 1
    return apply_unitary_exp(h, e_in, coupling)


def probability_table(space, amplitudes, n_in, threshold=0.0,
                      enforce_conservation=False):
    """(kets, probabilities, conserves) of every out-state with
    probability above threshold, in row order: descending probability,
    rows whose probabilities agree to 36 significant bits in ascending
    ket order.  kets is an int array, probabilities a float64 array and
    conserves a list.

    amplitudes is the column S|in> over the space's basis and n_in the
    in-state's ket (`space.index_of(in_state)`).  conserves says whether
    each out-state's total 4-momentum equals the in-state's; with
    enforce_conservation the non-conserving rows are dropped.  It is
    None when momenta are not labeled.
    """
    if not 0 <= threshold < np.inf:  # NaN fails both
        raise ValueError("threshold must be finite and nonnegative")
    momenta, labeled = _momentum_table(space)
    col = np.asarray(amplitudes)
    # np.hypot matches the scalar abs() bit for bit; the array np.abs does not
    prob = np.hypot(col.real, col.imag) ** 2
    flagged = labeled & labeled[n_in]
    conserves = (momenta == momenta[n_in]).all(1)
    keep = (prob > threshold) & (conserves | ~flagged | (not enforce_conservation))
    kept = np.flatnonzero(keep)
    # P rounded to 36 bits (about 11 digits) so that rows equal in exact
    # arithmetic keep ket order whatever the last-bit rounding
    mantissa, exponent = np.frexp(prob[kept])
    rounded = np.ldexp(np.round(np.ldexp(mantissa, 36)), exponent - 36)
    kept = kept[np.lexsort((kept, -rounded))]
    return kept, prob[kept], np.where(flagged[kept], conserves[kept], None).tolist()
