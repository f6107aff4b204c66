"""Exception hierarchy for toyqft."""


class ToyQFTError(Exception):
    """Base class for all toyqft errors."""


class InvalidRoster(ToyQFTError):
    """Mode roster is malformed (duplicate or non-dense ids)."""


class UnknownMode(ToyQFTError):
    """Referenced mode id is not in the space's roster."""


class NotInBasis(ToyQFTError):
    """Occupation state (or ordinal) lies outside the space's basis."""


class SpaceMismatch(ToyQFTError):
    """Binary operation between operators on different spaces."""


class DuplicateTerm(ToyQFTError):
    """Field spec lists the same mode twice."""


class NotHermitian(ToyQFTError):
    """Matrix handed to a Hermitian-only routine is not Hermitian."""


class NotAForm(ToyQFTError):
    """Vector components disagree in spectator occupations."""


class DivisionByZeroEnergy(ToyQFTError):
    """Field construction hit a lattice mode with zero total energy."""


class EmptyRoster(ToyQFTError):
    """Scattering roster construction produced no modes."""


class NotFinite(ToyQFTError):
    """A computed spectrum holds an infinite or NaN value."""


class CouplingTooLarge(ToyQFTError):
    """|g|·‖H‖₁, held as `scale`, exceeds `scatter.COUPLING_BOUND`."""

    def __init__(self, scale):
        self.scale = scale
        super().__init__(f"|g|·‖H‖₁ = {scale!r} exceeds the coupling bound")


class ScenarioError(ToyQFTError):
    """Scenario file failed schema validation."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
