"""Exception types shared across the package.

Each class's ``exit_code`` is the process exit code of a ``glembed``
command that it ends: 1 for any package error (a ``DomainError``, say),
2 for a ``ConfigError``, 3 for a ``DataError`` or ``CompatibilityError``
and 4 for a ``NumericAbortError``.
"""


class GlembedError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(GlembedError):
    """Invalid configuration: unknown keys, bad values, impossible splits.
    ``key`` names the configuration key (or tuple of keys) at fault, if any."""

    exit_code = 2

    def __init__(self, message: str, key: str | tuple[str, ...] | None = None):
        super().__init__(message)
        self.key = key


class DataError(GlembedError):
    """Malformed or inconsistent input data."""

    exit_code = 3


class CompatibilityError(GlembedError):
    """Model file and data disagree on shape, family, or vocabulary."""

    exit_code = 3


class DomainError(GlembedError):
    """Value outside the support or parameter domain of a family."""


class NumericAbortError(GlembedError):
    """Training produced a non-finite parameter; names iteration and coordinate."""

    exit_code = 4
