"""Truncated Fock spaces with canonically ordered occupation bases.

A space is parametrized by a roster of particle modes (each fermion or
boson) and a cutoff s on the total particle number.  Pure-fermion,
pure-boson and mixed spaces are all instances of the same construction.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidRoster, NotInBasis, UnknownMode


class Statistics(Enum):
    FERMION = "fermion"
    BOSON = "boson"


@dataclass(frozen=True)
class ParticleMode:
    """One particle mode: identity, statistics, mass, optional 4-momentum
    and roster block.

    Mass is in units of the lattice energy quantum.  If a momentum
    (p0, p1, p2, p3) is attached it must lie on the forward mass shell:
    p0 >= 0 and p0^2 - |p|^2 = mass^2.  A species is one (block, mass);
    `build_roster` sets blocks 0 and 1, and a JSON roster none.
    """

    id: int
    label: str
    statistics: Statistics
    mass: int = 0
    momentum: tuple | None = None
    block: int | None = None

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError(f"mode {self.label}: negative mass")
        if self.momentum is not None:
            p0, p1, p2, p3 = self.momentum
            if p0 < 0:
                raise ValueError(f"mode {self.label}: negative energy")
            if p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 != self.mass**2:
                raise ValueError(
                    f"mode {self.label}: momentum {self.momentum} off the "
                    f"mass-{self.mass} shell"
                )


@dataclass(frozen=True)
class OccupationState:
    """One basis ket: an occupied-fermion set plus boson occupation counts.

    fermions is a strictly increasing tuple of fermion mode ids; bosons is
    a tuple of (mode id, count) pairs sorted by mode id with counts >= 1.
    """

    fermions: tuple = ()
    bosons: tuple = ()

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.fermions, self.fermions[1:])):
            raise ValueError("fermion ids must be strictly increasing")
        if any(c < 1 for _, c in self.bosons):
            raise ValueError("boson counts must be positive")
        ids = [m for m, _ in self.bosons]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("boson ids must be strictly increasing")

    @property
    def total(self):
        """Total particle count."""
        return len(self.fermions) + sum(c for _, c in self.bosons)

    def count_of(self, mode_id):
        """Occupation number of one mode (0 or 1 for fermions)."""
        if mode_id in self.fermions:
            return 1
        for m, c in self.bosons:
            if m == mode_id:
                return c
        return 0

    def encoding(self):
        """Canonical flat encoding: fermion ids, then boson ids with
        multiplicity.  The basis is ordered by it within each total."""
        expanded = []
        for m, c in self.bosons:
            expanded.extend([m] * c)
        return self.fermions + tuple(expanded)

    def to_json(self):
        return {
            "fermions": list(self.fermions),
            "bosons": [[m, c] for m, c in self.bosons],
        }


@dataclass(frozen=True)
class FockSpace:
    """Enumerated basis of all occupation states with total count <= cutoff_s.

    The read-only count table occupations[ket, mode] is the basis.  Order:
    total particle count ascending, then lexicographic on the canonical
    encoding (fermion block first); ket 0 is the vacuum.  OccupationState
    objects are made only at the edges.  Immutable after construction
    but for `_annihilators`, each mode's annihilator entries once built.
    """

    modes: tuple
    cutoff_s: int
    occupations: np.ndarray = field(compare=False, repr=False)
    # sorted row keys and the ket of each, built once for every row search
    _lookup: tuple = field(init=False, compare=False, repr=False)
    # (rows, cols, data) arrays: an operator would refer back to the space
    _annihilators: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        keys = _row_keys(self.occupations)
        order = np.argsort(keys)
        object.__setattr__(self, "_lookup", (keys[order], order))

    @property
    def dimension(self):
        return len(self.occupations)

    @property
    def basis(self):
        """Every ket as an OccupationState, in basis order."""
        return tuple(self.states_at(np.arange(self.dimension)))

    def mode(self, mode_id):
        if 0 <= mode_id < len(self.modes):
            return self.modes[mode_id]
        raise UnknownMode(f"mode id {mode_id} not in roster")

    def is_fermion(self, mode_id):
        return self.mode(mode_id).statistics is Statistics.FERMION

    def find_rows(self, rows):
        """Ket of each row of a C-contiguous count table, -1 if it is none.

        One search among the sorted row keys gives each row a candidate
        ket; the candidate is its ket only if the two count rows agree
        (cheaper than comparing the opaque keys again)."""
        known, kets = self._lookup
        candidate = kets.take(np.searchsorted(known, _row_keys(rows)), mode="clip")
        return np.where((self.occupations[candidate] == rows).all(1), candidate, -1)

    def index_of(self, state):
        row = np.zeros((1, len(self.modes)), dtype=np.int64)
        entries = [(f, 1) for f in state.fermions] + list(state.bosons)
        for k, (mode_id, count) in enumerate(entries):
            fits = 0 <= mode_id < len(self.modes) and state.total <= self.cutoff_s
            if not (fits and self.is_fermion(mode_id) == (k < len(state.fermions))):
                raise NotInBasis(f"state {state} not in basis")
            row[0, mode_id] = count
        return int(self.find_rows(row)[0])  # every such row is a ket

    def states_at(self, ordinals):
        """OccupationState of each ket in an ordinal array, in its order."""
        rows = self.occupations[ordinals]
        kets, ids = np.nonzero(rows)  # ket-major, mode ids ascending
        counts = rows[kets, ids].tolist()
        ends = np.cumsum(np.bincount(kets, minlength=len(rows))).tolist()
        fermion = [m.statistics is Statistics.FERMION for m in self.modes]
        ids = ids.tolist()
        states, start = [], 0
        for end in ends:
            occupied = list(zip(ids[start:end], counts[start:end]))
            states.append(OccupationState(
                tuple(i for i, _ in occupied if fermion[i]),
                tuple(b for b in occupied if not fermion[b[0]]),
            ))
            start = end
        return states


def _row_keys(rows):
    """One opaque, sortable key per row of a C-contiguous count table."""
    width = rows.itemsize * rows.shape[1]  # 0 only for the no-mode vacuum
    return rows.view(f"V{width}").ravel() if width else np.zeros(len(rows), "V1")


def count_kets(fermions, bosons, cutoff):
    """Running counts of the kets of `fermions` fermion and `bosons` boson
    modes that hold at most `cutoff` particles, in closed form: one count
    per k = 0, 1, ... fermions, adding those with k fermions and at most
    cutoff - k bosons.  The last, and largest, is the space's dimension;
    there is none if cutoff < 0."""
    kets = 0
    for k in range(min(fermions, cutoff) + 1):
        kets += math.comb(fermions, k) * math.comb(bosons + cutoff - k, bosons)
        yield kets


def build_space(modes, cutoff_s):
    """Enumerate the truncated Fock space over the given mode roster.

    Mode ids must be dense 0..k-1.  Every occupation state with total
    particle count <= cutoff_s is included, deterministically ordered.
    """
    modes = tuple(modes)
    if cutoff_s < 1:
        raise ValueError("cutoff_s must be >= 1")
    ids = [m.id for m in modes]
    if sorted(ids) != list(range(len(modes))):
        raise InvalidRoster(f"mode ids {ids} are not dense 0..{len(modes) - 1}")
    modes = tuple(sorted(modes, key=lambda m: m.id))
    fermion = np.array([m.statistics is Statistics.FERMION for m in modes], bool)

    # A ket's encoding starts with its lead mode: its lowest fermion id,
    # or its lowest boson id if it has no fermion.  One particle fewer in
    # the lead leaves a ket of total t-1 whose encoding is the rest, so
    # the kets of total t in basis order are each mode id in turn put
    # before the kets of total t-1 it may lead, kept in their order.  A
    # fermion f leads the kets whose fermions all exceed f; a boson b the
    # fermion-free kets whose bosons are all >= b.  The vacuum leads with
    # id n and no fermion.
    n, n_fermion = len(modes), int(fermion.sum())
    dimension = max(count_kets(n_fermion, n - n_fermion, cutoff_s))
    occupations = np.zeros((dimension, n), dtype=np.int64)
    lead, lead_fermion, start, end = np.array([n]), np.array([False]), 0, 1
    head = np.arange(n)[:, None]
    for _ in range(cutoff_s if n else 0):  # no mode: the vacuum alone
        heads, tails = np.nonzero(np.where(
            fermion[:, None], ~lead_fermion | (lead > head), ~lead_fermion & (lead >= head)
        ))
        if not len(heads):  # no ket of this total, so none of any higher
            break
        rows = slice(end, end + len(heads))
        occupations[rows] = occupations[start + tails]
        occupations[rows][np.arange(len(heads)), heads] += 1
        lead, lead_fermion, start, end = heads, fermion[heads], end, rows.stop
    occupations.flags.writeable = False
    return FockSpace(modes, cutoff_s, occupations)
