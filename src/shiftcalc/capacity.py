"""Capacity guard for exponentially sized index sets.

Every operation that materializes the n^k words of a level checks the size
against a global limit first, so blowups fail loudly instead of thrashing.
"""

DEFAULT_LIMIT = 2**22

_limit = DEFAULT_LIMIT


class CapacityError(Exception):
    """Raised when an operation would materialize too many cylinders."""


def get_limit() -> int:
    return _limit


def set_limit(limit: int) -> None:
    global _limit
    if limit < 1:
        raise ValueError("capacity limit must be positive")
    if limit > 2**28:
        raise ValueError("capacity limit exceeds the hard cap 2**28")
    _limit = limit


def fits(n: int, level: int) -> bool:
    """Does n**level stay within the limit?  From the limit's bit length on,
    |n| >= 2 puts n**level past it, so that is decided without building the
    power."""
    if abs(n) >= 2 and level >= _limit.bit_length():
        return False
    return n**level <= _limit


def check(n: int, level: int) -> int:
    """Return n**level, raising CapacityError unless it `fits` the limit."""
    if level < 0:
        raise ValueError("level or radius %d is negative" % level)
    if not fits(n, level):
        size = "at least 2^%d" % level if level >= _limit.bit_length() else n**level
        raise CapacityError(
            "level-%d index set over alphabet %d has %s cylinders, limit is %d"
            % (level, n, size, _limit)
        )
    return n**level
