"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError / CompatibilityError -> 3, NumericAbortError -> 4.
"""


class GlembedError(Exception):
    """Base class for all package errors."""


class ConfigError(GlembedError):
    """Invalid configuration: unknown keys, bad values, impossible splits.
    ``key`` names the configuration key (or tuple of keys) at fault, if any."""

    def __init__(self, message: str, key: str | tuple[str, ...] | None = None):
        super().__init__(message)
        self.key = key


class DataError(GlembedError):
    """Malformed or inconsistent input data."""


class CompatibilityError(GlembedError):
    """Model file and data disagree on shape, family, or vocabulary."""


class DomainError(GlembedError):
    """Value outside the support or parameter domain of a family."""


class NumericAbortError(GlembedError):
    """Training produced a non-finite parameter; names iteration and coordinate."""
