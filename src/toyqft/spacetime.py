"""Discrete spacetime lattice Z+ x Z^3 with Minkowski arithmetic.

All arithmetic is exact: squared intervals and inner products are
integers, and the plane-wave phase exp(i pi px / 2) is a fourth root of
unity computed from px mod 4 with no floating-point trigonometry.
"""

import functools
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DivisionByZeroEnergy, EmptyRoster, UnknownMode
from .fields import free_field

# i^k for k = 0..3
_QUARTER_TURNS = (1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j)


@dataclass(frozen=True)
class LatticePoint:
    """Spacetime point (x0, x) with nonnegative integer time."""

    x0: int
    x: tuple = (0, 0, 0)

    def __post_init__(self):
        if self.x0 < 0:
            raise ValueError("time coordinate must be nonnegative")

    def as_tuple(self):
        return (self.x0,) + tuple(self.x)


@dataclass(frozen=True)
class EnergyMomentum:
    """Forward-cone 4-momentum (p0, p)."""

    p0: int
    p: tuple = (0, 0, 0)

    def __post_init__(self):
        if self.p0 < 0:
            raise ValueError("energy must be nonnegative")
        if minkowski_sq(self.as_tuple()) < 0:
            raise ValueError(f"{self.as_tuple()} outside the forward cone")

    def as_tuple(self):
        return (self.p0,) + tuple(self.p)


def minkowski_sq(v):
    """Squared Minkowski interval v0^2 - v1^2 - v2^2 - v3^2."""
    v0, v1, v2, v3 = v
    return v0 * v0 - v1 * v1 - v2 * v2 - v3 * v3


def lorentz_product(p, x):
    """Indefinite inner product p0 x0 - p.x."""
    p0, p1, p2, p3 = p.as_tuple() if isinstance(p, EnergyMomentum) else p
    x0, x1, x2, x3 = x.as_tuple() if isinstance(x, LatticePoint) else x
    return p0 * x0 - p1 * x1 - p2 * x2 - p3 * x3


def phase(p, x):
    """exp(i pi px / 2) as an exact fourth root of unity."""
    return _QUARTER_TURNS[lorentz_product(p, x) % 4]


def hyperboloid(m, r):
    """All forward-cone integer 4-momenta of mass m with p0 <= r.

    Ordered by p0 ascending, then lexicographically on the spatial part.
    May be empty (e.g. r < m).
    """
    points = []
    for p0 in range(r + 1):
        rem = p0 * p0 - m * m
        if rem < 0:
            continue
        bound = isqrt(rem)
        for p1 in range(-bound, bound + 1):
            rem1 = rem - p1 * p1
            b2 = isqrt(rem1)
            for p2 in range(-b2, b2 + 1):
                rem2 = rem1 - p2 * p2
                p3 = isqrt(rem2)
                if p3 * p3 != rem2:
                    continue
                for q3 in (-p3, p3) if p3 else (0,):
                    points.append(EnergyMomentum(p0, (p1, p2, q3)))
    return points


@functools.cache
def _shell(m, r):
    """hyperboloid(m, r) as a tuple, built once per (m, r): a scatter op
    reads each block's shell in `build_roster` and `field_at`.
    EmptyRoster if it has no point."""
    points = tuple(hyperboloid(m, r))
    if not points:
        raise EmptyRoster(f"mass-{m} hyperboloid empty for r={r}")
    return points


def shell_size(m, r):
    """Number of points of the mass-m hyperboloid with p0 <= r, read off
    the cached shell; 0 if it has none."""
    try:
        return len(_shell(m, r))
    except EmptyRoster:
        return 0


def space_volume(x0):
    """Number of integer spatial points within Euclidean distance x0."""
    return int(_slice_classes(x0).sum())


@functools.cache
def _slice_classes(x0):
    """The number of spatial points of the time-x0 slice {|x| <= x0} in
    each of the 64 classes of vectors mod 4, class 16 (x1 & 3) +
    4 (x2 & 3) + (x3 & 3); read-only, counted once per x0.

    The slice is counted column by column, one x1 row of (x1, x2) columns
    at a time: a column holds the x3 in [-b, b], b = isqrt(x0^2 - x1^2 -
    x2^2), and floor((b - k) / 4) - floor((-b - 1 - k) / 4) of them are
    k mod 4.  No point is listed, so the cost is O(x0^2) time and O(x0)
    memory."""
    if x0 < 0:
        raise ValueError("time coordinate must be nonnegative")
    counts = np.zeros((4, 4, 4), dtype=np.int64)  # [x1 & 3, x2 & 3, x3 & 3]
    residues = np.arange(4)
    for x1 in range(-x0, x0 + 1):
        rest = x0 * x0 - x1 * x1
        width = isqrt(rest)
        x2 = np.arange(-width, width + 1, dtype=np.int64)
        left = rest - x2 * x2
        # isqrt(left): the float root's floor is off by at most one
        b = np.sqrt(left).astype(np.int64)
        b -= b * b > left
        b += (b + 1) * (b + 1) <= left
        b = b[:, None]
        column = (b - residues) // 4 - (-b - 1 - residues) // 4
        np.add.at(counts[x1 & 3], x2 & 3, column)
    counts = counts.reshape(64)
    counts.flags.writeable = False  # shared by every call
    return counts


def field_at(space, x, r, m, mode_ids):
    """Free field at lattice point x: one AC term per named mode, with
    coefficient phase(p, x) / p0 for the mode's own momentum p.

    The named modes must be the mass-m hyperboloid points with p0 <= r,
    one mode per point (UnknownMode for a point with no mode, then for a
    mode off the shell or named twice); so the two blocks of an
    equal-mass roster stay apart.  Massless fields are rejected: the
    p0 = 0 point has no finite coefficient.
    """
    points = _shell(m, r)
    if any(p.p0 == 0 for p in points):
        raise DivisionByZeroEnergy(f"mass-{m} hyperboloid contains a zero-energy point")
    modes = [space.mode(i) for i in mode_ids]
    named = {mode.momentum for mode in modes}  # a momentum fixes its mode's mass
    for p in points:
        if p.as_tuple() not in named:
            raise UnknownMode(f"roster has no mass-{m} mode with momentum {p.as_tuple()}")
    unnamed = {p.as_tuple() for p in points}
    for mode in modes:
        if mode.momentum not in unnamed:
            raise UnknownMode(
                f"mode {mode.id} is off the mass-{m} shell at r={r} or named twice"
            )
        unnamed.remove(mode.momentum)
    terms = [(mode.id, phase(mode.momentum, x) / mode.momentum[0]) for mode in modes]
    return free_field(space, terms)
