"""Exception types shared across the package.

Each carries the exit code that the CLI returns for it: configuration
problems exit 2, data/shape problems exit 3, numerical failures exit 4.
"""


class ConfigError(ValueError):
    """Invalid sensor or plan configuration (bad gain bounds, bad parameters)."""

    exit_code = 2


class DataError(ValueError):
    """Unusable input data: unreadable files, NaNs, missing gain levels."""

    exit_code = 3


class ShapeError(DataError):
    """Array dimensions do not conform (map/scene grid mismatch, indivisible tiles)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (degenerate fit, solver breakdown)."""

    exit_code = 4
