"""Operation tallies used in place of hardware timings.

One process-wide OpCounters object holds running totals that the group law
and the field layer add to; nothing ever resets them.  Measure a block
with ``tally()``, which reads the totals on entry and exit.
"""

from __future__ import annotations

from contextlib import contextmanager

FIELDS = ("ecadd", "ecdbl", "fe_mul", "fe_inv")


class OpCounters:
    """Group additions and doublings, field multiplications and inversions."""

    __slots__ = FIELDS

    def __init__(self):
        self.ecadd = self.ecdbl = self.fe_mul = self.fe_inv = 0


_totals = OpCounters()


def counters() -> OpCounters:
    """The process-wide running totals."""
    return _totals


@contextmanager
def tally():
    """An OpCounters whose fields, once the block exits, hold what it added.

    Tallies nest, since each only reads the running totals.
    """
    t = OpCounters()
    before = [getattr(_totals, f) for f in FIELDS]
    try:
        yield t
    finally:
        for f, b in zip(FIELDS, before):
            setattr(t, f, getattr(_totals, f) - b)
