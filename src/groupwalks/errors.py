"""Shared exception types and the one budget check.

The CLI maps these onto exit codes: configuration problems exit 1,
budget refusals exit 2, and internal invariant violations exit 3.
"""

__all__ = [
    "GroupwalksError",
    "ConfigError",
    "BudgetError",
    "DimensionMismatch",
    "CharacteristicError",
    "InvalidMove",
    "ReversibilityError",
    "InvariantError",
    "check_budget",
]


class GroupwalksError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(GroupwalksError, ValueError):
    """Invalid configuration value or malformed config file."""


class BudgetError(GroupwalksError, RuntimeError):
    """An exact enumeration or dense computation exceeds the configured budget."""


class DimensionMismatch(GroupwalksError, ValueError):
    """Operands live over different dimensions or different moduli."""


class CharacteristicError(GroupwalksError, ValueError):
    """Operation not defined in this field characteristic (e.g. 1/2 over F_2)."""


class InvalidMove(GroupwalksError, ValueError):
    """A walk move with out-of-range or coinciding indices."""


class ReversibilityError(GroupwalksError, ValueError):
    """Detailed balance fails beyond tolerance for the supplied stationary law."""


class InvariantError(GroupwalksError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def check_budget(count: int, limit: int, what: str, name: str, key: str | None = None) -> None:
    """Refuse with BudgetError when count exceeds limit.

    Callers check before they allocate what the count measures.  The message
    reads "<count> <what> exceed the <name> budget <limit>", followed by
    "; rerun with <key> >= <count>" when a config key sets the limit.
    """
    if count > limit:
        rerun = f"; rerun with {key} >= {count}" if key else ""
        raise BudgetError(f"{count} {what} exceed the {name} budget {limit}{rerun}")
