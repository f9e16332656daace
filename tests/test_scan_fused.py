"""The scan's inline group law against the scan it replaced.

A scalar multiplication deals its recoded terms into one chain of buckets
per table (scalarmul._deal) and runs each chain (scalarmul._chain), which
computes dbl-2001-b, madd-2007-bl and, for the Jacobian odd multiples that
mul_signed builds above width 2, add-2007-bl over the entry's cached Z**2
and Z**3 inline on local integers, and adds their tallies once per chain.
ReferenceScan below takes the same two calls the way the scan ran before
that: its deal places each table's terms on its own, and its chain makes
every step a call into curve.py's ec_dbl_jj, ec_add_ajj and ec_add_jjj,
which tally for themselves.  Each multiplication runs once under each
scan, and the two results must be Jacobian-identical, to the coordinate,
and count the same operations, but for the two multiplications that each
cached entry saves add-2007-bl.
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
    fixed_base_table,
    mul_binary,
    mul_interleave,
    mul_signed,
    wmof_recode,
)

INLINE_SCAN = (scalarmul._deal, scalarmul._chain)


def equal_u(Q1, Q2):
    """Neither point the identity, and the same affine x."""
    p = Q1.curve.field.p
    return bool(Q1.Z and Q2.Z) and Q1.X * Q2.Z * Q2.Z % p == Q2.X * Q1.Z * Q1.Z % p


class ReferenceScan:
    """The scan with each step a call into curve.py, through the seam the
    multipliers call: deal(p, terms, lookups, chunk, chains), then
    chain(curve, adds, jadds) once per chain.  The deal takes each table in
    turn and places its terms on their own: a term's track is the last one
    that starts at or below its position, track i starting at i*chunk, and
    its offset is its distance from that start.  A digit d reads the entry
    of |d|, at index |d| // 2, and the deal stores it with d's sign in the
    chain's adds, whatever its kind, skipping the identity.  The chain runs
    from the highest offset down, doubling through each offset, and adds
    an offset's affine entries through ec_add_ajj, then its Jacobian ones,
    as (X, Y, Z, Z**2, Z**3), through ec_add_jjj; a negative entry is its
    entry's negative, by ec_neg for an affine one and -Y for a Jacobian
    one.  general counts the Jacobian additions that ec_add_jjj runs by
    add-2007-bl (both operands at Z other than 0 and 1, distinct x),
    computing the Z**2 and Z**3 of the entry that the inline scan reads
    from its cache; chains counts the chains run."""

    def __init__(self):
        self.general = 0
        self.chains = 0

    def deal(self, p, terms, lookups, chunk, chains):
        for tracks, (adds, jadds) in zip(lookups, chains):
            starts = [i * chunk for i in range(len(tracks))]
            for pos, d in terms:
                i = max(i for i, start in enumerate(starts) if start <= pos)
                entry = tracks[i][abs(d) // 2]
                if entry is not None:
                    adds[pos - starts[i]] += ((entry, d < 0),)

    def chain(self, curve, adds, jadds):
        assert not any(jadds)
        self.chains += 1
        R = JacobianPoint.infinity(curve)
        for row in reversed(adds):
            R = ec_dbl_jj(R)
            for entry, negative in [e for e in row if len(e[0]) == 2]:
                pt = AffinePoint(curve, *entry)
                R = ec_add_ajj(ec_neg(pt) if negative else pt, R)
            for entry, negative in [e for e in row if len(e[0]) != 2]:
                X, Y, Z = entry[:3]
                J = JacobianPoint(curve, X, -Y % curve.field.p if negative else Y, Z)
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


def scan(c, scalars):
    """Scalars, each (terms, track lookups, chunk), dealt into one chain and
    the chain run, through scalarmul's names, which run_both patches."""
    size = max(scalarmul._reach(terms, len(lookups), chunk) for terms, lookups, chunk in scalars)
    chain = [()] * size, [()] * size
    for terms, lookups, chunk in scalars:
        scalarmul._deal(c.field.p, terms, (lookups,), chunk, (chain,))
    return scalarmul._chain(c, *chain)


def run_both(monkeypatch, multiply, steps=None):
    """multiply() under the inline scan and under the reference: the
    coordinates of the points it returns and the tally of each run, the
    reference's less the 2 multiplications of each of its general
    Jacobian additions; and that number of additions."""
    reference = ReferenceScan()
    runs = []
    for deal, chain in (INLINE_SCAN, (reference.deal, reference.chain)):
        with monkeypatch.context() as m:
            m.setattr(scalarmul, "_deal", deal)
            m.setattr(scalarmul, "_chain", chain)
            if steps is not None and deal is INLINE_SCAN[0]:
                m.setattr(scalarmul, "ec_add_ajj", steps.ajj)
                m.setattr(scalarmul, "ec_add_jjj", steps.jjj)
            with tally() as ops:
                points = multiply()
        runs.append((coords(points), [getattr(ops, f) for f in FIELDS]))
    # every point came out of the reference's chain, so no inline code ran
    # in its place
    assert reference.chains == len(points)
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
    R, S = encrypt(Y, m, ForcedK(k))
    return [R, S]


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
    Rs = [to_affine(R) for R, _ in (encrypt(Y, 7, rng) for _ in range(4))]
    Rs.append(AffinePoint.identity(c))
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
            inline, reference, _ = run_both(monkeypatch, lambda: [scan(c, scalars[order])])
            assert inline == reference, w
            Q = JacobianPoint(c, *inline[0][0])
            assert jac_tuple(Q) == o_mul(1000, as_tuple(c.G), p, a), w


def last_track_m(c):
    """An m with terms at position 0 and at the start of the last track of
    the generator's table, past any reading on secp160r1."""
    g_table = default_table(c)
    return (3 << (g_table.t - 1) * -(-c.field.n // g_table.t)) + 5


@pytest.mark.parametrize("m_case", ["no m", "one-term m", "m on the last track"])
@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2", "curve"])
def test_tuple_form(name, m_case, request, monkeypatch):
    # two tables of one shape in one call, as encrypt makes it: k is dealt
    # once into both chains and m's terms into the last one only.  Under
    # each scan, the pair matches the two single-table calls to the
    # coordinate, and the group law gives k*G and k*P + m*G, P = 2G.  On
    # the tiny curves k sweeps across the group order, so partial sums meet
    # the entries and their negatives, over the shipped shape and over four
    # tracks at widths 4 and 5
    c = request.getfixturevalue(name)
    p, a = o_of(c)
    g = as_tuple(c.G)
    m = {"no m": 0, "one-term m": 1 << 7, "m on the last track": last_track_m(c)}[m_case]
    P = to_affine(mul_binary(2, c.G))
    pairs = [(default_table(c), fixed_base_table(P))]
    if c.field.n < 20:
        pairs += [(build_table(c.G, 4, w), build_table(P, 4, w)) for w in (4, 5)]
        ks = range(c.order_n - 48, c.order_n + 48)
    else:
        rng = random.Random(m)
        ks = [1, c.order_n - 1] + [rng.randrange(1, c.order_n) for _ in range(6)]
    for tables in pairs:
        for k in ks:
            inline, reference, _ = run_both(monkeypatch, lambda: mul_interleave(k, tables, m))
            assert inline == reference, (k, m)
            R, S = mul_interleave(k, tables[0]), mul_interleave(k, tables[1], m)
            assert inline[0] == coords([R, S]), (k, m)
            if c.field.n < 20:
                assert jac_tuple(R) == o_mul(k, g, p, a), k
                assert jac_tuple(S) == o_mul(2 * k + m, g, p, a), k
