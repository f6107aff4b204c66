import numpy as np
import pytest

from toyqft import ParticleMode, Statistics, build_space, canonicalize
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
