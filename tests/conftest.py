"""Shared fixtures and independent oracles.

The oracle functions below work on plain integer pairs with textbook affine
slope formulas and pow()-based inversion; they share no code with the
package's projective formulas or its substitution-based reduction, which is
what makes them usable as a second route for every group-law check.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import ecagg.curve
import ecagg.elgamal
import ecagg.scalarmul
from ecagg.counters import tally
from ecagg.curve import AffinePoint, CurveParams, JacobianPoint, builtin_curve, to_affine
from ecagg.errors import BadEncoding, OffCurvePoint
from ecagg.field import FieldParams

# ---------------------------------------------------------------------------
# Affine-formula oracle on integer tuples; None is the identity.


def o_add(P, Q, p, a):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def o_mul(k, P, p, a):
    if k < 0:
        raise ValueError("negative scalar")  # k >>= 1 would stop at -1, never 0
    R = None
    while k:
        if k & 1:
            R = o_add(R, P, p, a)
        P = o_add(P, P, p, a)
        k >>= 1
    return R


def o_of(curve):
    """(p, a) pair for feeding the oracle from CurveParams."""
    return curve.field.p, curve.a


def as_tuple(P):
    """AffinePoint -> oracle tuple."""
    if P.infinity:
        return None
    return (P.x, P.y)


def jac_tuple(Q):
    """JacobianPoint -> oracle tuple, normalizing once."""
    return as_tuple(to_affine(Q))


def as_point(T, curve):
    """Oracle tuple -> AffinePoint."""
    if T is None:
        return AffinePoint.identity(curve)
    return AffinePoint(curve, T[0], T[1])


def oracle_points(curve, count, rng, start_bits=48):
    """Distinct curve points as oracle tuples: a chain k*G, (k+1)*G, ..."""
    p, a = o_of(curve)
    g = as_tuple(curve.G)
    pts = [o_mul(rng.getrandbits(start_bits) | 1, g, p, a)]
    while len(pts) < count:
        pts.append(o_add(pts[-1], g, p, a))
    return pts


def at_z(T, curve, z):
    """Oracle tuple -> JacobianPoint at Z = z; the identity gets Z = 0."""
    if T is None:
        return JacobianPoint.infinity(curve)
    p = curve.field.p
    return JacobianPoint(curve, T[0] * z * z % p, T[1] * z ** 3 % p, z)


# The checks below look their target up on its module at call time, so
# the mutation gate's patched functions are the ones they test.

def check_add_jjj_over_z_classes(curve, rng):
    """ec_add_jjj against o_add for each operand at Z = 0 (the identity),
    Z = 1 or another Z, the two operands equal, opposite or distinct."""
    p, a = o_of(curve)
    A, B = oracle_points(curve, 2, rng)
    pairs = [(A, A), (A, (A[0], -A[1] % p)), (A, B), (A, None), (None, B), (None, None)]
    z1s, z2s = (1, rng.randrange(2, p)), (1, rng.randrange(2, p))
    for (T1, T2), z1, z2 in product(pairs, z1s, z2s):
        got = ecagg.curve.ec_add_jjj(at_z(T1, curve, z1), at_z(T2, curve, z2))
        assert jac_tuple(got) == o_add(T1, T2, p, a), (T1, T2, z1, z2)


def wire_encode(T, curve):
    """An oracle tuple in the point encoding, each coordinate written on its
    own: 00 for the identity, else 04 || x || y, byte_length bytes each."""
    if T is None:
        return b"\x00"
    blen = curve.field.byte_length
    return bytes([0x04]) + T[0].to_bytes(blen, "big") + T[1].to_bytes(blen, "big")


def wire_decode(data, pos, curve):
    """The point encoding at pos read one field at a time and checked by the
    oracle's own reductions: (oracle tuple, next position), or the error
    class and message that decode_point must refuse it with."""
    if pos >= len(data):
        return BadEncoding, "truncated point"
    if data[pos] == 0x00:
        return None, pos + 1
    if data[pos] != 0x04:
        return BadEncoding, f"unknown point tag {data[pos]:#04x}"
    blen = curve.field.byte_length
    if pos + 1 + 2 * blen > len(data):
        return BadEncoding, "truncated point payload"
    x = int.from_bytes(data[pos + 1:pos + 1 + blen], "big")
    y = int.from_bytes(data[pos + 1 + blen:pos + 1 + 2 * blen], "big")
    p = curve.field.p
    if x >= p or y >= p:
        return OffCurvePoint, "coordinate not below p"
    if pow(y, 2, p) != (pow(x, 3, p) + curve.a * x + curve.b) % p:
        return OffCurvePoint, "coordinates fail the curve equation"
    return (x, y), pos + 1 + 2 * blen


def check_ct_to_bytes_over_z_classes(curve, rng):
    """ct_to_bytes for R and S each at Z = 0, 1 or another Z (two different
    ones): the oracle's points in wire_encode's bytes, which
    point_to_bytes(to_affine(.)) writes too, for one inversion of the
    general Z and 3 multiplications when both share it, plus 4 per point
    scaled."""
    p = curve.field.p
    A, B = oracle_points(curve, 2, rng)
    zr = rng.randrange(2, p - 1)
    zs = zr + 1
    for (TR, z1), (TS, z2) in product(((None, 1), (A, 1), (A, zr)), ((None, 1), (B, 1), (B, zs))):
        R, S = at_z(TR, curve, z1), at_z(TS, curve, z2)
        with tally() as ops:
            got = ecagg.elgamal.ct_to_bytes((R, S))
        want = [wire_encode(T, curve) for T in (TR, TS)]
        assert want == [ecagg.curve.point_to_bytes(to_affine(Q)) for Q in (R, S)]
        assert got == b"".join(want), (TR, z1, TS, z2)
        general = sum(Q.Z > 1 for Q in (R, S))
        assert (ops.fe_mul, ops.fe_inv) == (4 * general + 3 * (general == 2), min(general, 1))


# Counts around the +- build's edges: below, at and just past its K
# offsets, one centre's reach of 2K + 1, and a partial second centre.
K = ecagg.elgamal._NORMALIZE_CHUNK
MULTIPLES_COUNTS = (1, K - 1, K, K + 1, 2 * K, 2 * K + 1, 2 * K + 2, 3 * K + 5)


def check_multiples(curve, count):
    """elgamal._multiples(G, count) against o_add: every j in [1, count]
    exactly once, carrying the oracle's j*G; and given the anchors, as the
    baby table builds, the same j and x, with the anchors' own y and None
    for every other point."""
    p, a = o_of(curve)
    g, acc, want = as_tuple(curve.G), None, []
    for j in range(1, count + 1):
        acc = o_add(acc, g, p, a)
        want.append((j, *acc))
    assert sorted(ecagg.elgamal._multiples(curve.G, count)) == want, (curve.name, count)
    anchors = ecagg.elgamal._anchors(curve.G, count)
    stored = {x: y for xs, ys in (anchors[:2], anchors[2:]) for x, y in zip(xs, ys)}
    got = sorted(ecagg.elgamal._multiples(curve.G, count, anchors))
    assert got == [(j, x, stored.get(x)) for j, x, _ in want], (curve.name, count)


# Baby logs whose sign the secp160r1 checks resolve at stride 2**14: the
# first and last offsets, centre 513 and either side of it, both ends of
# centre 513's reach, and the last centre, 16416, reaching down to 16160
# and, within the stride, 16384.
SECP_BABY_LOGS = (1, 256, 257, 512, 513, 514, 769, 16160, 16384)


def check_baby_log(curve, count, js):
    """elgamal._baby_log over the anchors of count multiples of G against
    o_add: for every j in js, the oracle's j*G resolves to j and -j*G to -j,
    at 2 multiplications for a centre +- offset and none for an anchor."""
    p, a = o_of(curve)
    g = as_tuple(curve.G)
    anchors = ecagg.elgamal._anchors(curve.G, count)
    k_max = len(anchors[0])
    acc, last = None, 0
    for j in sorted(js):
        acc = o_add(acc, o_mul(j - last, g, p, a), p, a)
        last = j
        x, y = acc
        anchor = j <= k_max or j % (2 * k_max + 1) == 0
        for signed, sy in ((j, y), (-j, -y % p)):
            with tally() as ops:
                assert ecagg.elgamal._baby_log(anchors, j, x, sy, p) == signed, (curve.name, signed)
            assert (ops.fe_mul, ops.fe_inv) == (0 if anchor else 2, 0), (curve.name, signed)


def cut_edges(t, n_bits, order):
    """Scalars at the edges of the t-track cut of an n_bits table: 0 and 1,
    either side of the first track boundary, the group order less one, and
    the widest scalar the bound check admits."""
    chunk = -(-n_bits // t)
    return (0, 1, (1 << chunk) - 1, 1 << chunk, order - 1, (1 << (t * chunk + 1)) - 1)


def check_track_cut(curve, t, w, ks):
    """mul_interleave over curve's generator table at (t, w) against o_add:
    k*G for every k in ks, a k past the group order wrapping around it."""
    p, a = o_of(curve)
    g = as_tuple(curve.G)
    table = ecagg.scalarmul.build_table(curve.G, t, w)
    acc, last = None, 0
    for k in sorted(set(ks)):
        acc = o_add(acc, o_mul(k - last, g, p, a), p, a)
        last = k
        got = ecagg.scalarmul.mul_interleave(k, table)
        assert jac_tuple(got) == acc, (curve.name, t, w, k)


def x_equal_p_bytes(curve):
    """The point encoding 04 || p || sqrt(b), for a curve with p = 3 mod 4
    and b a square mod p: reduced mod p, (p, sqrt(b)) is the on-curve point
    (0, sqrt(b)), so only the range check on x can refuse it."""
    p = curve.field.p
    assert p % 4 == 3
    y = pow(curve.b, (p + 1) // 4, p)
    assert y * y % p == curve.b
    blen = curve.field.byte_length
    return bytes([0x04]) + p.to_bytes(blen, "big") + y.to_bytes(blen, "big")


class ForcedK:
    """Random source whose randrange always yields a fixed value."""

    def __init__(self, k):
        self.k = k

    def randrange(self, *args):
        return self.k


# ---------------------------------------------------------------------------
# Fixtures.

SECP160R1_P = 2**160 - 2**31 - 1

# Small pseudo-Mersenne curve for exhaustive runs: p = 2**13 - 1, a = p - 3,
# b = 3, generator (1, 1), group order 8221 (prime).  Found by point counting;
# the CurveParams constructor re-validates all of it on every test session.
TINY = {"n": 13, "c": 1, "a": 8188, "b": 3, "gx": 1, "gy": 1, "order": 8221}

# Same field with a = 2, the general-a doubling branch: b = 15, generator
# (1, 7807), group order 8167 (prime), also re-validated by CurveParams.
TINY_A2 = {"n": 13, "c": 1, "a": 2, "b": 15, "gx": 1, "gy": 7807, "order": 8167}

# A 7-bit curve, narrower than FIXED_BASE_SHAPE has tracks: p = 2**7 - 1,
# a = p - 3, b = 57, generator (6, 1), group order 109 (prime).
SMALL7 = {"n": 7, "c": 1, "a": 124, "b": 57, "gx": 6, "gy": 1, "order": 109}


def make_tiny(params, name):
    """A fresh curve, with empty table and search caches, from TINY, TINY_A2
    or SMALL7."""
    return CurveParams(FieldParams(params["n"], params["c"]), params["a"], params["b"],
                       params["gx"], params["gy"], params["order"], name)


@pytest.fixture(scope="session")
def curve():
    return builtin_curve()


@pytest.fixture(scope="session")
def tiny_curve():
    return make_tiny(TINY, "tiny13")


@pytest.fixture(scope="session")
def tiny_curve_a2():
    return make_tiny(TINY_A2, "tiny13a2")


@pytest.fixture(scope="session")
def fp160():
    return FieldParams(160, 2**31 + 1)


@pytest.fixture
def rng():
    return random.Random(0xEC2026)
