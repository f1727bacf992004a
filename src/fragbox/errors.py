"""Error types shared across the library, and its one check of a size."""

import numbers


class ArgumentError(ValueError):
    """A caller passed something out of range or malformed."""


class UnsupportedCaseError(NotImplementedError):
    """The inputs fall in a case the library deliberately does not handle."""


class ResourceBudgetError(RuntimeError):
    """A computation exceeded its enumeration or rejection budget."""


class ModelError(ValueError):
    """The model itself is degenerate (e.g. zero splitting rate)."""


def _is_integer_type(kind):
    """Whether values of type kind are integers: int or another Integral
    (numpy's integers), never bool or a float type, so not 4.0 either."""
    return kind is int or (issubclass(kind, numbers.Integral) and not issubclass(kind, bool))


def _check_count(name, x, least):
    """x as an int, if it is an integer (see _is_integer_type) of at least
    least; anything else raises ArgumentError."""
    if type(x) is not int:
        if not _is_integer_type(type(x)):
            raise ArgumentError(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if x < least:
        raise ArgumentError(f"{name} must be at least {least}, got {x!r}")
    return x
