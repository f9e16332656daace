"""Operation tallies used in place of hardware timings.

Counters are kept per thread so parallel benchmark trials do not race;
single-threaded callers never notice the difference.
"""

from __future__ import annotations

import threading


class OpCounters:
    """Running totals of group and field operations.

    ecadd, ecdbl, fe_mul and fe_inv are the cost metrics.  last_reduce_passes
    is not a total: it holds how many substitution passes the most recent
    mod_reduce call took, so the two-pass bound behind FieldParams'
    c < 2**(n/2) rule can be checked.
    """

    __slots__ = ("ecadd", "ecdbl", "fe_mul", "fe_inv", "last_reduce_passes")

    def __init__(self):
        self.reset()

    def reset(self):
        self.ecadd = 0
        self.ecdbl = 0
        self.fe_mul = 0
        self.fe_inv = 0
        self.last_reduce_passes = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.ecadd, self.ecdbl, self.fe_mul)


_local = threading.local()


def counters() -> OpCounters:
    """The calling thread's counter object."""
    try:
        return _local.counters
    except AttributeError:
        _local.counters = c = OpCounters()
        return c


def op_counters() -> tuple[int, int, int]:
    """(ecadd, ecdbl, fe_mul) counted on this thread since the last reset."""
    return counters().snapshot()


def reset_counters():
    counters().reset()
