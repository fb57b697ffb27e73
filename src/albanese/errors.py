"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so library code should
raise these rather than bare ValueError/RuntimeError for user-facing
conditions.
"""


class InputError(ValueError):
    """Arguments violate a documented precondition."""


class CapacityError(RuntimeError):
    """A configured size/memory cap would be exceeded."""


class ConsistencyError(RuntimeError):
    """An internal exact cross-check failed; indicates a bug, not bad input."""
