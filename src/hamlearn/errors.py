"""Exception types shared across the package."""


class HamlearnError(Exception):
    """Base class for package-specific errors."""


class ZeroTotalWeight(HamlearnError):
    """Every hypothesis received zero likelihood; the update must be rejected."""


class DimensionMismatch(HamlearnError, ValueError):
    """Operands live in parameter spaces of different dimension."""


class DegenerateCloud(HamlearnError):
    """The particle cloud has collapsed onto a single position."""


class TooManyQubits(HamlearnError, ValueError):
    """Requested system size exceeds the configured qubit cap."""


class InsufficientData(HamlearnError, ValueError):
    """Not enough usable points to perform a fit."""


class SchemaError(HamlearnError, ValueError):
    """Configuration text or a command-line value violates the expected schema."""
