"""Machine-speed calibration for the benchmark's times.

The machines this benchmark runs on share their cores, and the same Python
code runs at speeds up to 2x apart from one stretch of seconds to the next
(thread CPU time slows down with wall time, so the cause is the core, not
preemption).  A run that lands in a slow stretch would read as a regression.

So every timed piece of work is bracketed by a fixed reference kernel, and
its time is reported at reference speed.  The kernel is plain Python written
here, independent of ecagg, in two parts that slow down by different
amounts in a slow stretch:

- interpreter work: 160-bit modular multiplications behind function calls,
  slotted objects allocated per step and byte round-trips, the kind of work
  in ecagg's group law, encoding and bookkeeping;
- inversion work: ``pow(x, p - 2, p)`` at 160 bits, which is how ecagg's
  ``mod_inv`` inverts.

A piece of work whose time is a share ``w`` inversions is scaled by

    1 / ((1 - w) * interp / INTERP_REF_NS + w * inv / INV_REF_NS)

with ``interp`` and ``inv`` the mean of the two parts' bracketing times.  A
change to ecagg moves the work but not the kernel, so it shows in full; a
slow stretch moves both and cancels.
"""

from __future__ import annotations

import time

# The two parts' times on the reference machine (2-CPU Intel Xeon, Python
# 3.11.7) in its faster stretches, so calibrated times read as wall times
# there.  Changing them rescales every reported time: keep them fixed.
INTERP_REF_NS = 400_000
INV_REF_NS = 510_000

_P = (1 << 160) - (1 << 31) - 1
_MASK = (1 << 160) - 1
_C = (1 << 31) + 1


class _Elt:
    __slots__ = ("v",)

    def __init__(self, v):
        if not 0 <= v < _P:
            raise ValueError("not reduced")
        self.v = v


class _Pt:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z


def _mul(a, b):
    r = a * b
    while r >> 160:
        r = (r >> 160) * _C + (r & _MASK)
    return r - _P if r >= _P else r


def _add(a, b):
    r = a + b
    return r - _P if r >= _P else r


def _sub(a, b):
    r = a - b
    return r + _P if r < 0 else r


def _dbl(q):
    x, y, z = q.x.v, q.y.v, q.z.v
    yy = _mul(y, y)
    t = _mul(x, yy)
    s = _add(_add(t, t), _add(t, t))
    zz = _mul(z, z)
    u = _mul(_sub(x, zz), _add(x, zz))
    m = _add(_add(u, u), u)
    x3 = _sub(_mul(m, m), _add(s, s))
    y3 = _sub(_mul(m, _sub(s, x3)), _mul(yy, yy))
    return _Pt(_Elt(x3), _Elt(y3), _Elt(_mul(y, z)))


def kernel() -> tuple[int, int]:
    """Run the fixed reference work; returns the wall ns of its two parts."""
    t0 = time.perf_counter_ns()
    q = _Pt(_Elt(0x1234567890ABCDEF1234567890ABCDEF12345678),
            _Elt(0x7EDCBA0987654321FEDCBA0987654321FEDCBA09), _Elt(1))
    seen = {}
    for k in range(50):
        q = _dbl(q)
        data = b"\x04" + q.x.v.to_bytes(20, "big") + q.y.v.to_bytes(20, "big")
        seen[int.from_bytes(data[1:21], "big")] = (k, data)
    t1 = time.perf_counter_ns()
    x = q.z.v
    for _ in range(8):
        x = pow(x, _P - 2, _P)
    return t1 - t0, time.perf_counter_ns() - t1


def factor(before: tuple[int, int], after: tuple[int, int], inv_share: float) -> float:
    """Multiplier taking a wall time bracketed by two kernel runs to reference
    speed, for work whose time is inv_share inversions."""
    interp = (before[0] + after[0]) / (2 * INTERP_REF_NS)
    inv = (before[1] + after[1]) / (2 * INV_REF_NS)
    return 1 / ((1 - inv_share) * interp + inv_share * inv)


def timed(inv_share: float, fn, *args):
    """(result, wall ns, calibration factor) of one bracketed call."""
    before = kernel()
    t0 = time.perf_counter_ns()
    out = fn(*args)
    wall = time.perf_counter_ns() - t0
    return out, wall, factor(before, kernel(), inv_share)
