"""Exception types shared across the package."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured resource budget."""


class NumericalError(RuntimeError):
    """A numerical procedure cannot produce a meaningful result."""


class CoverageError(NumericalError):
    """A proposal assigns zero density to a point the target supports."""


class ZeroVarianceError(NumericalError):
    """A series has zero variance, so correlation diagnostics are undefined.

    ``column`` is the index of the constant column in a batch of series.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column
