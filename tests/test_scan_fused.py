"""The scan's inline group law against the scan it replaced.

scalarmul._scan runs dbl-2001-b, madd-2007-bl and, for the Jacobian odd
multiples that mul_signed builds above width 2, add-2007-bl over the
entry's cached Z**2 and Z**3 inline on local integers, and adds their
tallies once per call.  ReferenceScan below is the scan as it was before
that: every step a call into curve.py's ec_dbl_jj, ec_add_ajj and
ec_add_jjj, which tally for themselves.  Each multiplication runs once
under each scan, and the two results must be Jacobian-identical, to the
coordinate, and count the same operations, but for the two
multiplications that each cached entry saves add-2007-bl.
"""

import random
from collections import Counter

import pytest
from conftest import ForcedK, as_tuple, jac_tuple, o_mul, o_of

from ecagg import scalarmul
from ecagg.counters import FIELDS, tally
from ecagg.curve import (
    AffinePoint,
    JacobianPoint,
    builtin_curve,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    ec_neg,
    lift,
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


def equal_u(Q1, Q2):
    """Neither point the identity, and the same affine x."""
    p = Q1.curve.field.p
    return bool(Q1.Z and Q2.Z) and Q1.X * Q2.Z * Q2.Z % p == Q2.X * Q1.Z * Q1.Z % p


class ReferenceScan:
    """The scan with each step a call into curve.py: affine entries through
    ec_add_ajj, then Jacobian ones, as (X, Y, Z, Z**2, Z**3), through
    ec_add_jjj, skipping the identity.  general counts the Jacobian
    additions that ec_add_jjj runs by add-2007-bl (both operands at Z
    other than 0 and 1, distinct x), computing the Z**2 and Z**3 of the
    entry that the inline scan reads from its cache.  Scalars are (terms,
    track lookups, chunk), as the inline scan takes them, and are split
    into rows here on their own: a term's track is the last one that starts
    at or below its position, track i starting at i*chunk, and its offset
    is its distance from that start.  A digit d reads the entry of |d|,
    at index |d| // 2, and a negative one is that entry's negative, by
    ec_neg for an affine entry and -Y for a Jacobian one.  The chain runs
    from the highest offset down, doubling through each offset."""

    def __init__(self):
        self.general = 0

    def __call__(self, curve, scalars):
        rows = []
        for terms, lookups, chunk in scalars:
            starts = [i * chunk for i in range(len(lookups))]
            for pos, d in terms:
                i = max(i for i, start in enumerate(starts) if start <= pos)
                rows.append((pos - starts[i], lookups[i][abs(d) // 2], d < 0))
        adds = [()] * (max((j for j, _, _ in rows), default=-1) + 1)
        jadds = adds.copy()
        for j, entry, negative in rows:
            if entry is None:
                continue
            if len(entry) == 2:
                pt = AffinePoint(curve, *entry)
                adds[j] += (ec_neg(pt) if negative else pt,)
            else:
                X, Y, Z = entry[:3]
                jadds[j] += (JacobianPoint(curve, X, -Y % curve.field.p if negative else Y, Z),)
        R = JacobianPoint.infinity(curve)
        for points, jpoints in zip(reversed(adds), reversed(jadds)):
            R = ec_dbl_jj(R)
            for pt in points:
                R = ec_add_ajj(pt, R)
            for J in jpoints:
                if R.Z not in (0, 1) and J.Z not in (0, 1) and not equal_u(R, J):
                    self.general += 1
                R = ec_add_jjj(R, J)
        return R


class Steps:
    """Counts the steps the inline scan hands to ec_add_ajj (an affine
    entry) and ec_add_jjj (a Jacobian one), by entry and kind."""

    def __init__(self):
        self.seen = Counter()

    def ajj(self, A, Q):
        R = ec_add_ajj(A, Q)
        self._see("affine", lift(A), Q, R)
        return R

    def jjj(self, Q, J):
        R = ec_add_jjj(Q, J)
        self._see("jacobian", J, Q, R)
        return R

    def _see(self, entry, A, Q, R):
        if not Q.Z:
            self.seen[entry, "identity accumulator"] += 1
        elif equal_u(A, Q):
            self.seen[entry, "opposite" if R.is_infinity else "equal-x doubling"] += 1

    def saw(self, entry, kinds=("identity accumulator", "equal-x doubling", "opposite")):
        return all(self.seen[entry, kind] for kind in kinds)


def coords(points):
    return [(Q.X, Q.Y, Q.Z) for Q in points]


def run_both(monkeypatch, multiply, steps=None):
    """multiply() under the inline scan and under the reference: the
    coordinates of the points it returns and the tally of each run, the
    reference's less the 2 multiplications of each of its general
    Jacobian additions; and that number of additions."""
    reference = ReferenceScan()
    runs = []
    for scan in (INLINE_SCAN, reference):
        with monkeypatch.context() as m:
            m.setattr(scalarmul, "_scan", scan)
            if steps is not None and scan is INLINE_SCAN:
                m.setattr(scalarmul, "ec_add_ajj", steps.ajj)
                m.setattr(scalarmul, "ec_add_jjj", steps.jjj)
            with tally() as ops:
                points = multiply()
        runs.append((coords(points), [getattr(ops, f) for f in FIELDS]))
    runs[1][1][FIELDS.index("fe_mul")] -= 2 * reference.general
    return runs + [reference.general]


@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2"])
def test_sweep_across_the_tiny_group_order(name, request, monkeypatch):
    # k runs across the group order, so partial sums meet the point being
    # added (a doubling) and its negative (the identity), P itself or, above
    # width 2, one of its Jacobian odd multiples; on the a = 2 curve every
    # doubling is the general-a ec_dbl_jj
    c = request.getfixturevalue(name)
    p, a = o_of(c)
    g = as_tuple(c.G)
    P = to_affine(mul_binary(2, c.G))
    default_table(c)  # the m row's table, built outside the compared tallies
    runs = [(lambda k, w=w: [mul_signed(k, c.G, w)], lambda k: k) for w in (2, 3, 4, 5)]
    for w in (4, 5):
        p_table = build_table(P, 4, w)
        runs.append((lambda k, p_table=p_table: [mul_interleave(k, p_table, k % 256)],
                     lambda k: 2 * k + k % 256))
    steps = Steps()
    for multiply, scalar in runs:
        for k in range(c.order_n - 256, c.order_n + 256):
            inline, reference, _ = run_both(monkeypatch, lambda: multiply(k), steps)
            assert inline == reference, k
            Q = JacobianPoint(c, *inline[0][0])
            assert jac_tuple(Q) == o_mul(scalar(k), g, p, a), k
    # every k here recodes to a top digit of +-1, so a Jacobian entry never
    # meets the identity accumulator; the unmasking test sees that
    assert steps.saw("affine") and steps.saw("jacobian", ("equal-x doubling", "opposite"))


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
        inline, reference, _ = run_both(monkeypatch, lambda: encrypted(Y, m, k))
        assert inline == reference, (k, m)


def test_secp160r1_equal_and_opposite_points(monkeypatch):
    # x = 1 makes Y = G, so k = 1 and m = 1 add G to G within S's scan; x =
    # n - 1 makes Y = -G, and S = -G + G is the identity
    c = builtin_curve()
    default_table(c)
    steps = Steps()
    for x in (1, c.order_n - 1):
        Y = keygen(ForcedK(x), c).public_Y
        inline, reference, _ = run_both(monkeypatch, lambda: encrypted(Y, 1, 1), steps)
        assert inline == reference, x
    assert inline[0][1] == (1, 1, 0)
    assert steps.saw("affine")


def test_secp160r1_unmasking(monkeypatch):
    # x*(-R) as decrypt runs it, at width 4, for x at both ends of [1, n -
    # 1] and random ones, over encryptions' R and the identity (the R of an
    # aggregate folded with its mirror, whose odd multiples are all the
    # identity)
    c = builtin_curve()
    n = c.order_n
    rng = random.Random(0xDEC)
    Y = keygen(rng, c).public_Y
    Rs = [to_affine(encrypt(Y, 7, rng).R) for _ in range(4)] + [AffinePoint.identity(c)]
    xs = [1, n - 1] + [rng.randrange(1, n) for _ in range(8)]
    steps = Steps()
    for x in xs:
        for R in Rs:
            inline, reference, general = run_both(
                monkeypatch, lambda: [mul_signed(x, ec_neg(R), 4)], steps)
            assert inline == reference, (x, R)
            if R.infinity:
                assert inline[0][0] == (1, 1, 0) and not general
            elif x not in (1, n - 1):
                assert general
    assert steps.saw("jacobian", ("identity accumulator",))


@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2", "curve"])
def test_identity_lookup_entries_add_nothing(name, request, monkeypatch):
    # a row over the identity beside a row over G: the identity's entries,
    # affine or (widths 4 and 5) Jacobian, meet an accumulator that is not
    # the identity, and change nothing
    c = request.getfixturevalue(name)
    p, a = o_of(c)
    for w in (2, 4, 5):
        scalars = [(wmof_recode(1000, w), (_signed_lookup(c.G, w),), 1),
                   (wmof_recode(77, w), (_signed_lookup(AffinePoint.identity(c), w),), 1)]
        for order in (slice(None), slice(None, None, -1)):
            inline, reference, _ = run_both(
                monkeypatch, lambda: [scalarmul._scan(c, scalars[order])])
            assert inline == reference, w
            Q = JacobianPoint(c, *inline[0][0])
            assert jac_tuple(Q) == o_mul(1000, as_tuple(c.G), p, a), w
