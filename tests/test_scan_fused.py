"""The scan's inline group law against the scan it replaced.

scalarmul._scan runs dbl-2001-b and madd-2007-bl inline on local integers
and adds their tallies once per call.  _reference_scan below is the scan as
it was before that: every step a call into curve.py's ec_dbl_jj and
ec_add_ajj, which tally for themselves.  Each multiplication runs once under
each scan, and the two results must be Jacobian-identical, to the
coordinate, and count the same operations.
"""

import random
from collections import Counter
from itertools import compress

import pytest
from conftest import ForcedK, as_tuple, jac_tuple, o_mul, o_of

from ecagg import scalarmul
from ecagg.counters import FIELDS, tally
from ecagg.curve import (
    AffinePoint,
    JacobianPoint,
    builtin_curve,
    ec_add_ajj,
    ec_dbl_jj,
    ec_neg,
    to_affine,
)
from ecagg.elgamal import encrypt, keygen
from ecagg.scalarmul import (
    _signed_lookup,
    build_table,
    default_table,
    mul_binary,
    mul_interleave,
    mul_signed,
    wmof_recode,
)

INLINE_SCAN = scalarmul._scan


def _reference_scan(curve, rows, lookups):
    adds = [()] * max(map(len, rows))
    for row, lookup in zip(rows, lookups):
        for i, d in compress(enumerate(row), row):
            adds[i] += (lookup[d],)
    R = JacobianPoint.infinity(curve)
    for points in reversed(adds):
        R = ec_dbl_jj(R)
        for pt in points:
            R = ec_add_ajj(pt, R)
    return R


class Steps:
    """Counts the steps the inline scan hands to ec_add_ajj, by kind."""

    def __init__(self):
        self.seen = Counter()

    def __call__(self, A, Q):
        R = ec_add_ajj(A, Q)
        if not Q.Z:
            self.seen["identity accumulator"] += 1
        elif A.x * Q.Z * Q.Z % A.curve.field.p == Q.X:
            self.seen["opposite" if R.is_infinity else "equal-x doubling"] += 1
        return R


def coords(points):
    return [(Q.X, Q.Y, Q.Z) for Q in points]


def run_both(monkeypatch, multiply, steps=None):
    """multiply() under the inline scan and under the reference: the
    coordinates of the points it returns and the tally of each run."""
    runs = []
    for scan in (INLINE_SCAN, _reference_scan):
        with monkeypatch.context() as m:
            m.setattr(scalarmul, "_scan", scan)
            if steps is not None and scan is INLINE_SCAN:
                m.setattr(scalarmul, "ec_add_ajj", steps)
            with tally() as ops:
                points = multiply()
        runs.append((coords(points), [getattr(ops, f) for f in FIELDS]))
    return runs


@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2"])
def test_sweep_across_the_tiny_group_order(name, request, monkeypatch):
    # k runs across the group order, so partial sums meet the point being
    # added (a doubling) and its negative (the identity); on the a = 2 curve
    # every doubling is the general-a ec_dbl_jj
    c = request.getfixturevalue(name)
    p, a = o_of(c)
    g = as_tuple(c.G)
    P = to_affine(mul_binary(2, c.G))
    p_table = build_table(P, 4, 4)
    default_table(c)  # the m row's table, built outside the compared tallies
    runs = [(lambda k, w=w: [mul_signed(k, c.G, w)], lambda k: k) for w in (2, 3, 4)]
    runs.append((lambda k: [mul_interleave(k, p_table, k % 256)],
                 lambda k: 2 * k + k % 256))
    steps = Steps()
    for multiply, scalar in runs:
        for k in range(c.order_n - 256, c.order_n + 256):
            inline, reference = run_both(monkeypatch, lambda: multiply(k), steps)
            assert inline == reference, k
            Q = JacobianPoint(c, *inline[0][0])
            assert jac_tuple(Q) == o_mul(scalar(k), g, p, a), k
    assert {"identity accumulator", "equal-x doubling", "opposite"} <= steps.seen.keys()


def encrypted(Y, m, k):
    ct = encrypt(Y, m, ForcedK(k))
    return [ct.R, ct.S]


def test_secp160r1_encryptions(monkeypatch):
    c = builtin_curve()
    Y = keygen(random.Random(0x5CA), c).public_Y
    default_table(c)
    rng = random.Random(0xF05E)
    messages = [0, 1, 255, 2**24 - 1] + [rng.randrange(1 << 24) for _ in range(196)]
    for m in messages:
        k = rng.randrange(1, c.order_n)
        inline, reference = run_both(monkeypatch, lambda: encrypted(Y, m, k))
        assert inline == reference, (k, m)


def test_secp160r1_equal_and_opposite_points(monkeypatch):
    # x = 1 makes Y = G, so k = 1 and m = 1 add G to G within S's scan; x =
    # n - 1 makes Y = -G, and S = -G + G is the identity
    c = builtin_curve()
    default_table(c)
    steps = Steps()
    for x in (1, c.order_n - 1):
        Y = keygen(ForcedK(x), c).public_Y
        inline, reference = run_both(monkeypatch, lambda: encrypted(Y, 1, 1), steps)
        assert inline == reference, x
    assert inline[0][1] == (1, 1, 0)
    assert {"identity accumulator", "equal-x doubling", "opposite"} <= steps.seen.keys()


def test_secp160r1_unmasking(monkeypatch):
    # x*(-R) as decrypt runs it, for x at both ends of [1, n - 1] and random
    # ones, over encryptions' R and the identity (the R of an aggregate
    # folded with its mirror)
    c = builtin_curve()
    n = c.order_n
    rng = random.Random(0xDEC)
    Y = keygen(rng, c).public_Y
    Rs = [to_affine(encrypt(Y, 7, rng).R) for _ in range(4)] + [AffinePoint.identity(c)]
    xs = [1, n - 1] + [rng.randrange(1, n) for _ in range(8)]
    for x in xs:
        for R in Rs:
            inline, reference = run_both(monkeypatch, lambda: [mul_signed(x, ec_neg(R), 2)])
            assert inline == reference, (x, R)
            if R.infinity:
                assert inline[0][0] == (1, 1, 0)


@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2", "curve"])
def test_identity_lookup_entries_add_nothing(name, request, monkeypatch):
    # a row over the identity beside a row over G: the identity's entries
    # meet an accumulator that is not the identity, and change nothing
    c = request.getfixturevalue(name)
    p, a = o_of(c)
    rows = [wmof_recode(1000, 2), wmof_recode(77, 2)]
    lookups = [_signed_lookup(c.G, 2), _signed_lookup(AffinePoint.identity(c), 2)]
    for order in (slice(None), slice(None, None, -1)):
        inline, reference = run_both(
            monkeypatch, lambda: [scalarmul._scan(c, rows[order], lookups[order])])
        assert inline == reference
        assert jac_tuple(JacobianPoint(c, *inline[0][0])) == o_mul(1000, as_tuple(c.G), p, a)
