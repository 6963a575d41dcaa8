"""Argument checks shared by the package's modules."""

import operator


def as_index(value, name):
    """value as an int, or a TypeError naming the argument if it is not an
    integer; a bool is a flag, not a count, and is refused too."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None
