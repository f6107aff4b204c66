import numpy as np
import pytest

from toyqft import OccupationState, ParticleMode, Statistics, build_space
from toyqft.ladder import OperatorMatrix


def fermion_modes(n, mass=0):
    return [ParticleMode(i, f"p{i + 1}", Statistics.FERMION, mass) for i in range(n)]


def boson_modes(n, mass=0, start=0):
    return [
        ParticleMode(start + i, f"q{i + 1}", Statistics.BOSON, mass)
        for i in range(n)
    ]


def k_space(s):
    """Pure-fermion space with n = s modes."""
    return build_space(fermion_modes(s), s)


def j_space(n, s):
    """Pure-boson space with n modes and cutoff s."""
    return build_space(boson_modes(n), s)


def l_space(m, n, s):
    """Mixed space: m fermions then n bosons, cutoff s."""
    modes = fermion_modes(m) + boson_modes(n, start=m)
    return build_space(modes, s)


def _permutation_sign(seq):
    """Parity of the permutation sorting seq ascending (distinct entries)."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def canonicalize(space, raw):
    """Bring a raw mode-id sequence to canonical occupation form.

    Returns (OccupationState, sign) where the sign is the product of the
    permutation parities of the one-species fermion subsequences, or None
    when a fermion id repeats (the ket is annihilated).  A species is one
    (block, mass).  Boson entries carry no sign, and neither does any
    interchange of fermions of distinct species.  The sign oracle for the
    library's ladders: it states the exchange rule on its own, two
    fermions of one species anticommute.
    """
    fermion_seq = []
    boson_counts = {}
    for mode_id in raw:
        mode = space.mode(mode_id)
        if mode.statistics is Statistics.FERMION:
            fermion_seq.append(mode_id)
        else:
            boson_counts[mode_id] = boson_counts.get(mode_id, 0) + 1
    if len(set(fermion_seq)) != len(fermion_seq):
        return None
    sign = 1
    species = [(space.mode(f).block, space.mode(f).mass) for f in fermion_seq]
    for one in set(species):
        sub = [f for f, kind in zip(fermion_seq, species) if kind == one]
        sign *= _permutation_sign(sub)
    state = OccupationState(
        tuple(sorted(fermion_seq)),
        tuple(sorted(boson_counts.items())),
    )
    return state, sign


def ket(space, *raw):
    """Basis index of the canonical state for a raw mode-id sequence; the
    exchange sign is dropped."""
    state, _ = canonicalize(space, raw)
    return space.index_of(state)


def identity(space):
    diagonal = np.arange(space.dimension)
    return OperatorMatrix._sorted(
        space, diagonal, diagonal, np.ones(space.dimension, dtype=complex)
    )


def number_operator(space, mode_id):
    """Diagonal occupation-number matrix for one mode."""
    space.mode(mode_id)
    counts = space.occupations[:, mode_id]
    diagonal = np.arange(space.dimension)
    return OperatorMatrix._sorted(space, diagonal, diagonal, counts.astype(complex))


def generic_coeffs(rng, count):
    """Complex coefficients with generic magnitudes (no accidental ties)."""
    mags = rng.uniform(0.4, 1.6, size=count)
    phases = rng.uniform(0, 2 * np.pi, size=count)
    return [m * np.exp(1j * p) for m, p in zip(mags, phases)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
