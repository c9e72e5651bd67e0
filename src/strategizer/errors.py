"""Exception types shared across the package.

The CLI maps these onto process exit codes: InputError -> 2 (including
DimensionMismatchError), PreconditionError -> 3, CapExceededError -> 4.
"""


class StrategizerError(Exception):
    pass


class InputError(StrategizerError):
    """Malformed or unreadable input (files, matrices, schedules)."""


class DimensionMismatchError(InputError):
    """Vector/matrix dimensions disagree; message names the offending dimension."""


class PreconditionError(StrategizerError):
    """A documented precondition does not hold (e.g. non-zero-sum game)."""


class CapExceededError(StrategizerError):
    """A configured resource cap (enumeration, iterations, sequences) binds."""
