"""Finite-dimensional toy quantum fields on truncated Fock spaces."""

from .fock import (
    FockSpace,
    OccupationState,
    ParticleMode,
    Statistics,
    build_space,
    count_kets,
)
from .ladder import (
    OperatorMatrix,
    ac_operator,
    annihilator,
    anticommutator,
    commutator,
    creator,
)
from .fields import (
    FormClassification,
    Parity,
    classify_form,
    field_spectrum,
    free_field,
    interaction_field,
    self_interaction,
)
from .spectral import (
    SpectralDecomposition,
    apply_unitary_exp,
    eigh,
    projectors,
    reconstruct,
    unitary_exp,
)
from .spacetime import (
    EnergyMomentum,
    LatticePoint,
    field_at,
    hyperboloid,
    lorentz_product,
    minkowski_sq,
    phase,
    space_volume,
)
from .scatter import (
    build_roster,
    hamiltonian,
    hamiltonian_density,
    probability_table,
    scatter_column,
    scattering_operator,
)

__version__ = "0.1.0"
