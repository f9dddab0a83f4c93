"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: user-input problems exit 1, resource
guards exit 2, cross-check mismatches exit 3.
"""


class EicpError(Exception):
    """Base class for all package errors."""


class FieldError(EicpError, ValueError):
    """Field order is not a supported prime."""


class InstanceFormatError(EicpError, ValueError):
    """Structurally malformed instance: bad JSON, unknown keys, indices out of range."""


class InvalidInstanceError(EicpError, ValueError):
    """Instance violates a semantic validity rule and the operation requires validity."""


class NotSingleUnicastError(InvalidInstanceError):
    """Operation requires a single unicast instance (M == N, distinct demands)."""


class InvalidCodeError(EicpError, ValueError):
    """Code is inconsistent with its instance (support violation, wrong length, mismatch)."""


class NotDecodableError(EicpError, ValueError):
    """Decoding coefficients requested for a user the code cannot serve."""


class GuardExceededError(EicpError, RuntimeError):
    """A resource guard tripped (enumeration too large, search budget exhausted)."""


class GenerationError(EicpError, RuntimeError):
    """Random generation could not satisfy the validity rules within its repair budget."""


class OracleExhaustedError(EicpError, RuntimeError):
    """Exhaustive code search found nothing up to its length bound, which it carries."""

    def __init__(self, l_max: int):
        super().__init__(f"no code of length <= {l_max} exists")
        self.l_max = l_max


class ConsistencyError(EicpError, RuntimeError):
    """Two independent routes to the same quantity disagree."""
