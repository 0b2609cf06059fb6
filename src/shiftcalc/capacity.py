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


def check(n: int, level: int) -> int:
    """Return n**level, raising CapacityError if it exceeds the limit.  From
    the limit's bit length on, |n| >= 2 puts n**level past the limit, so it
    is refused without building the power."""
    if level < 0:
        raise ValueError("level or radius %d is negative" % level)
    if abs(n) >= 2 and level >= _limit.bit_length():
        raise CapacityError(
            "level-%d index set over alphabet %d has at least 2^%d cylinders, "
            "limit is %d" % (level, n, level, _limit)
        )
    size = n**level
    if size > _limit:
        raise CapacityError(
            "level-%d index set over alphabet %d has %d cylinders, "
            "limit is %d" % (level, n, size, _limit)
        )
    return size
