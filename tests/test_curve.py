"""Group law against the textbook affine-formula oracle."""

import random

import pytest

from conftest import (
    TINY,
    TINY_A2,
    as_point,
    as_tuple,
    check_add_jjj_over_z_classes,
    jac_tuple,
    o_add,
    o_mul,
    o_of,
    oracle_points,
    x_equal_p_bytes,
)
from ecagg.counters import FIELDS, counters, tally
from ecagg.curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    curve_from_config,
    decode_point,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    ec_eq,
    ec_neg,
    lift,
    on_curve,
    point_to_bytes,
    to_affine,
)
from ecagg.errors import BadConfig, BadEncoding, InvalidCurve, OffCurvePoint
from ecagg.field import FieldParams
from ecagg.scalarmul import build_table, table_from_bytes, table_to_bytes


def scale(Q, lam):
    """(X, Y, Z) -> (lam^2 X, lam^3 Y, lam Z): same point, new representative."""
    p = Q.curve.field.p
    l2 = lam * lam % p
    return JacobianPoint(Q.curve, Q.X * l2 % p, Q.Y * l2 * lam % p, Q.Z * lam % p)


# --- validation ---------------------------------------------------------------

def test_on_curve_identity(curve):
    assert on_curve(AffinePoint.identity(curve))


def test_on_curve_generator(curve):
    # direct equation check against the loaded parameters
    p, a = o_of(curve)
    gx, gy = as_tuple(curve.G)
    assert (gy * gy - (gx**3 + a * gx + curve.b)) % p == 0
    assert on_curve(curve.G)


def test_on_curve_rejects_perturbed_generator(curve):
    bad = AffinePoint(curve, curve.G.x, (curve.G.y + 1) % curve.field.p)
    assert bad.y != curve.G.y
    assert not on_curve(bad)


# --- addition -----------------------------------------------------------------

def test_add_identity_left(curve):
    Q = lift(curve.G)
    out = ec_add_ajj(AffinePoint.identity(curve), Q)
    assert ec_eq(out, Q)


def test_add_infinity_right(curve):
    out = ec_add_ajj(curve.G, JacobianPoint.infinity(curve))
    assert out.Z == 1
    assert to_affine(out) == curve.G


def test_add_equal_points_is_doubling(curve):
    p, a = o_of(curve)
    expected = o_add(as_tuple(curve.G), as_tuple(curve.G), p, a)
    assert jac_tuple(ec_add_ajj(curve.G, lift(curve.G))) == expected


def test_add_oracle_random_pairs(curve, rng):
    p, a = o_of(curve)
    pts = oracle_points(curve, 300, rng)
    for i in range(0, 300, 2):
        T1, T2 = pts[i], pts[i + 1]
        expected = o_add(T1, T2, p, a)
        got = ec_add_ajj(as_point(T1, curve), lift(as_point(T2, curve)))
        assert jac_tuple(got) == expected
        assert on_curve(to_affine(got))


def test_add_jjj_oracle(curve, rng):
    p, a = o_of(curve)
    pts = oracle_points(curve, 200, rng)
    lam = rng.randrange(2, p)
    for i in range(0, 200, 2):
        T1, T2 = pts[i], pts[i + 1]
        q1 = scale(lift(as_point(T1, curve)), lam)
        q2 = scale(lift(as_point(T2, curve)), pow(lam, 3, p))
        assert jac_tuple(ec_add_jjj(q1, q2)) == o_add(T1, T2, p, a)
    # neutral cases and the doubling/opposite branches
    q = lift(as_point(pts[0], curve))
    inf = JacobianPoint.infinity(curve)
    assert ec_eq(ec_add_jjj(inf, q), q)
    assert ec_eq(ec_add_jjj(q, inf), q)
    assert jac_tuple(ec_add_jjj(q, scale(q, 7))) == o_add(pts[0], pts[0], p, a)
    neg = lift(ec_neg(as_point(pts[0], curve)))
    assert ec_add_jjj(q, neg).is_infinity


def test_add_commutative(curve, rng):
    pts = oracle_points(curve, 100, rng)
    for i in range(0, 100, 2):
        P1, P2 = as_point(pts[i], curve), as_point(pts[i + 1], curve)
        assert ec_eq(ec_add_ajj(P1, lift(P2)), ec_add_ajj(P2, lift(P1)))


def test_add_associative_sampled(curve, rng):
    p, a = o_of(curve)
    pts = oracle_points(curve, 90, rng)
    for i in range(0, 90, 3):
        P1, P2, P3 = (as_point(pts[i + j], curve) for j in range(3))
        left = ec_add_ajj(P1, ec_add_ajj(P2, lift(P3)))
        right = ec_add_ajj(P3, ec_add_ajj(P2, lift(P1)))
        assert ec_eq(left, right)


def test_add_scaling_invariance(curve, rng):
    pts = oracle_points(curve, 40, rng)
    for i in range(0, 40, 2):
        P1 = as_point(pts[i], curve)
        Q = lift(as_point(pts[i + 1], curve))
        lam = rng.randrange(2, curve.field.p)
        assert ec_eq(ec_add_ajj(P1, scale(Q, lam)), ec_add_ajj(P1, Q))


# --- doubling -----------------------------------------------------------------

def test_dbl_infinity(curve):
    assert ec_dbl_jj(JacobianPoint.infinity(curve)).is_infinity


def test_dbl_oracle(curve, rng):
    p, a = o_of(curve)
    for T in oracle_points(curve, 100, rng):
        assert jac_tuple(ec_dbl_jj(lift(as_point(T, curve)))) == o_add(T, T, p, a)


def test_dbl_chain_matches_naive(curve):
    # to_affine(dbl^k(G)) = 2^k * G by repeated oracle additions, k <= 10
    p, a = o_of(curve)
    Q = lift(curve.G)
    for k in range(1, 11):
        Q = ec_dbl_jj(Q)
        assert jac_tuple(Q) == o_mul(1 << k, as_tuple(curve.G), p, a)


def test_dbl_consistent_with_add(curve, rng):
    for T in oracle_points(curve, 50, rng):
        P = as_point(T, curve)
        assert ec_eq(ec_dbl_jj(lift(P)), ec_add_ajj(P, lift(P)))


def test_closure(curve, rng):
    pts = oracle_points(curve, 100, rng)
    for i in range(0, 100, 2):
        out = ec_add_ajj(as_point(pts[i], curve), lift(as_point(pts[i + 1], curve)))
        assert on_curve(to_affine(out))
        out = ec_dbl_jj(lift(as_point(pts[i], curve)))
        assert on_curve(to_affine(out))


# --- general a (a != -3) ---------------------------------------------------------

@pytest.fixture(scope="module")
def a2_points(tiny_curve_a2):
    """G, 2G, ..., 300G on the a = 2 curve as oracle tuples."""
    p, a = o_of(tiny_curve_a2)
    g = as_tuple(tiny_curve_a2.G)
    pts = [g]
    while len(pts) < 300:
        pts.append(o_add(pts[-1], g, p, a))
    return pts


def test_general_a_dbl_oracle(tiny_curve_a2, a2_points, rng):
    cur = tiny_curve_a2
    p, a = o_of(cur)
    assert not cur.a_is_minus3
    for T in a2_points:
        Q = scale(lift(as_point(T, cur)), rng.randrange(1, p))
        assert jac_tuple(ec_dbl_jj(Q)) == o_add(T, T, p, a)


def test_general_a_dbl_tally(tiny_curve_a2):
    c = counters()
    before = (c.ecadd, c.ecdbl, c.fe_mul)
    ec_dbl_jj(lift(tiny_curve_a2.G))
    assert (c.ecadd - before[0], c.ecdbl - before[1], c.fe_mul - before[2]) == (0, 1, 10)


def test_general_a_add_oracle(tiny_curve_a2, a2_points, rng):
    cur = tiny_curve_a2
    p, a = o_of(cur)
    pairs = [(rng.choice(a2_points), rng.choice(a2_points)) for _ in range(300)]
    pairs += [(T, T) for T in a2_points[:10]]
    pairs += [(T, as_tuple(ec_neg(as_point(T, cur)))) for T in a2_points[:10]]
    for T1, T2 in pairs:
        want = o_add(T1, T2, p, a)
        Q2 = scale(lift(as_point(T2, cur)), rng.randrange(1, p))
        assert jac_tuple(ec_add_ajj(as_point(T1, cur), Q2)) == want
        Q1 = scale(lift(as_point(T1, cur)), rng.randrange(1, p))
        assert jac_tuple(ec_add_jjj(Q1, Q2)) == want


def test_general_a_to_affine_oracle(tiny_curve_a2):
    cur = tiny_curve_a2
    p, a = o_of(cur)
    g = as_tuple(cur.G)
    R = JacobianPoint.infinity(cur)
    for k in range(1, 200):
        R = ec_add_ajj(cur.G, R)
        assert as_tuple(to_affine(R)) == o_mul(k, g, p, a)
        assert as_tuple(to_affine(ec_dbl_jj(R))) == o_mul(2 * k, g, p, a)


# --- negation and equality ------------------------------------------------------

def test_neg_identity(curve):
    ident = AffinePoint.identity(curve)
    assert ec_neg(ident).infinity


def test_neg_involution(curve, rng):
    for T in oracle_points(curve, 20, rng):
        P = as_point(T, curve)
        assert ec_neg(ec_neg(P)) == P


def test_neg_gives_inverse(curve, rng):
    for T in oracle_points(curve, 20, rng):
        P = as_point(T, curve)
        assert ec_add_ajj(P, lift(ec_neg(P))).is_infinity


@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2", "curve"])
def test_add_jjj_over_z_classes(name, request):
    # each operand the identity (Z = 0), at Z = 1 or at another Z, and the
    # two equal, opposite or distinct: mmadd, madd either way round and
    # add-2007-bl, each with its equal-x branches
    check_add_jjj_over_z_classes(request.getfixturevalue(name), random.Random(name))


def test_affine_eq_needs_the_same_group(curve, tiny_curve, tiny_curve_a2):
    # equal coordinates on two curves are two points, whether the fields
    # differ or only a and b do; the same curve loaded twice is one group
    assert AffinePoint(curve, 1, 1) != tiny_curve.G and tiny_curve.G != AffinePoint(curve, 1, 1)
    assert AffinePoint(tiny_curve_a2, 1, 1) != tiny_curve.G
    assert AffinePoint.identity(curve) != AffinePoint.identity(tiny_curve)
    twin = curve_from_config(BASE_CONFIG)
    assert twin is not curve and twin.G == curve.G
    assert AffinePoint.identity(twin) == AffinePoint.identity(curve)


def test_eq_reflexive_and_infinity(curve):
    Q = lift(curve.G)
    assert ec_eq(Q, Q)
    assert not ec_eq(Q, JacobianPoint.infinity(curve))
    assert ec_eq(JacobianPoint.infinity(curve), JacobianPoint.infinity(curve))


def test_eq_scaling(curve, rng):
    Q = lift(curve.G)
    for _ in range(20):
        lam = rng.randrange(2, curve.field.p)
        assert ec_eq(Q, scale(Q, lam))
        assert not ec_eq(ec_dbl_jj(Q), scale(Q, lam))


# --- conversion ------------------------------------------------------------------

def test_to_affine_infinity(curve):
    assert to_affine(JacobianPoint.infinity(curve)).infinity


def test_to_affine_unit_z(curve):
    assert to_affine(lift(curve.G)) == curve.G


def test_to_affine_on_curve(curve):
    assert on_curve(to_affine(ec_dbl_jj(lift(curve.G))))


# --- config loading ----------------------------------------------------------------

BASE_CONFIG = """
name = secp160r1
n = a0
c = 80000001
a = ffffffffffffffffffffffffffffffff7ffffffc
b = 1c97befc54bd7a8b65acf89f81d4d4adc565fa45
gx = 4a96b5688ef573284664698968c38bb913cbfc82
gy = 23a628553168947d59dcc912042351377ac5fb32
order_n = 0100000000000000000001f4c8f927aed3ca752257
"""


def test_load_shipped_profile(curve):
    assert curve.name == "secp160r1"
    assert curve.field.p == 2**160 - 2**31 - 1
    assert curve.a == curve.field.p - 3
    assert curve.a_is_minus3
    assert on_curve(curve.G)


def test_load_rejects_flipped_gy():
    bad = BASE_CONFIG.replace(
        "gy = 23a628553168947d59dcc912042351377ac5fb32",
        "gy = 23a628553168947d59dcc912042351377ac5fb33")
    with pytest.raises(InvalidCurve):
        curve_from_config(bad)


def test_load_rejects_composite_prime():
    # 2**160 - 2 is even, so the field constructor's primality check fails
    bad = BASE_CONFIG.replace("c = 80000001", "c = 2")
    with pytest.raises(InvalidCurve):
        curve_from_config(bad)


@pytest.mark.parametrize("c", ["0", "-1"])
def test_load_rejects_c_below_one(c):
    # 2**160 - 0 and 2**160 + 1 are composite too, so the message tells
    # the field constructor's own check on c from its primality test
    with pytest.raises(InvalidCurve, match="c must be positive"):
        curve_from_config(BASE_CONFIG.replace("c = 80000001", f"c = {c}"))


def test_load_rejects_singular():
    bad = BASE_CONFIG.replace(
        "a = ffffffffffffffffffffffffffffffff7ffffffc", "a = 0").replace(
        "b = 1c97befc54bd7a8b65acf89f81d4d4adc565fa45", "b = 0")
    with pytest.raises(InvalidCurve):
        curve_from_config(bad)


def test_load_rejects_missing_field():
    bad = BASE_CONFIG.replace("b = 1c97befc54bd7a8b65acf89f81d4d4adc565fa45", "")
    with pytest.raises(BadConfig):
        curve_from_config(bad)


def test_load_rejects_non_hex():
    bad = BASE_CONFIG.replace("n = a0", "n = xyz")
    with pytest.raises(BadConfig):
        curve_from_config(bad)


@pytest.mark.parametrize("edit", [("n = a0", "n a0"), ("n = a0", "n = a0\n= 5"),
                                  ("n = a0", "n = a0\nN = a0")],
                         ids=["no_equals", "empty_key", "duplicate_key"])
def test_load_rejects_malformed_line(edit):
    # keys are case-folded, so N repeats n
    with pytest.raises(BadConfig):
        curve_from_config(BASE_CONFIG.replace(*edit))


@pytest.mark.parametrize("bits", [161, 162])
def test_load_rejects_order_beyond_hasse_bound(bits):
    # the order of G is at most p + 1 + 2*sqrt(p) < 2**(n+1); checking that
    # first bounds the doublings that verify order_n * G
    bad = BASE_CONFIG.replace("order_n = 0100000000000000000001f4c8f927aed3ca752257",
                              f"order_n = {1 << bits:x}")
    with tally() as t, pytest.raises(InvalidCurve, match="group order"):
        curve_from_config(bad)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]


@pytest.mark.parametrize("n", ["20a", "2001", "ffffffff"])
def test_load_rejects_oversized_field(n):
    # above 521 bits (P-521) before any primality test or 1 << (n // 2)
    with pytest.raises(InvalidCurve, match="bit length"):
        curve_from_config(BASE_CONFIG.replace("n = a0", f"n = {n}"))


def test_load_rejects_wrong_order():
    bad = BASE_CONFIG.replace(
        "order_n = 0100000000000000000001f4c8f927aed3ca752257",
        "order_n = 0100000000000000000001f4c8f927aed3ca752259")
    with pytest.raises(InvalidCurve):
        curve_from_config(bad)


@pytest.mark.parametrize("name", ["x" * 256, "é" * 128], ids=["ascii", "two_byte"])
def test_load_rejects_name_over_255_bytes(name):
    # a table file stores the name's length in one byte; 128 two-byte
    # characters are 256 UTF-8 bytes
    with tally() as t, pytest.raises(BadConfig, match="255"):
        curve_from_config(BASE_CONFIG.replace("name = secp160r1", f"name = {name}"))
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]


def test_name_of_255_bytes_loads_and_its_table_round_trips():
    name = "é" * 127 + "x"
    curve = curve_from_config(BASE_CONFIG.replace("name = secp160r1", f"name = {name}"))
    data = table_to_bytes(build_table(curve.G, 2, 2))
    assert data[4] == 255 and data[5:260].decode() == name
    assert table_to_bytes(table_from_bytes(data, curve)) == data


def test_tiny_curve_validates(tiny_curve):
    assert on_curve(tiny_curve.G)
    assert tiny_curve.order_n == 8221


# Curves over GF(2**13 - 1) whose G satisfies order_n * G = O, found by
# point counting as the tiny test curves were: (a, b, gx, gy, order_n)
BAD_ORDERS = {
    # tiny13a2 with twice G's order: G's order divides it, so only the
    # domain checks can tell
    "double": (TINY_A2["a"], TINY_A2["b"], TINY_A2["gx"], TINY_A2["gy"], 2 * TINY_A2["order"]),
    # y^2 = x^3 - 3x + 4 has 8,210 = 2 * 5 * 821 points, all multiples of G
    "composite": (8188, 4, 3, 5225, 8210),
    # y^2 = x^3 - 3x + 8 has 8,198 = 2 * 4,099 points; G generates the
    # subgroup of prime order 4,099, below Hasse's interval
    "cofactor 2": (8188, 8, 1841, 942, 4099),
}


@pytest.mark.parametrize("name", BAD_ORDERS)
def test_order_must_be_prime_with_cofactor_1(name):
    # SEC 1 v2.0, 3.1.1.2.1; each order passed the order_n * G check alone
    a, b, gx, gy, order_n = BAD_ORDERS[name]
    field = FieldParams(TINY["n"], TINY["c"])
    with tally() as t, pytest.raises(InvalidCurve, match="group order"):
        CurveParams(field, a, b, gx, gy, order_n, name)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]


# --- wire encoding -------------------------------------------------------------------

def test_point_roundtrip(curve, rng):
    for T in oracle_points(curve, 20, rng):
        P = as_point(T, curve)
        data = point_to_bytes(P)
        assert len(data) == 41
        assert data[0] == 0x04
        Q, end = decode_point(data, 0, curve)
        assert (Q.X, Q.Y, Q.Z, end) == (P.x, P.y, 1, 41)


def test_identity_encoding(curve):
    data = point_to_bytes(AffinePoint.identity(curve))
    assert data == b"\x00"
    Q, end = decode_point(data, 0, curve)
    assert Q.Z == 0 and end == 1


def test_jacobian_infinity_is_not_a_point_flag(curve):
    # JacobianPoint.infinity builds the identity; read on a point, where a
    # bound method would always be truthy, it raises.  decode_point returns
    # Jacobian points, so the affine encoder cannot write one as the
    # identity by mistake
    Q = JacobianPoint.infinity(curve)
    assert Q.is_infinity and not lift(curve.G).is_infinity
    with pytest.raises(AttributeError):
        Q.infinity
    with pytest.raises(AttributeError):
        lift(curve.G).infinity
    with pytest.raises(AttributeError):
        point_to_bytes(decode_point(point_to_bytes(curve.G), 0, curve)[0])
    assert AffinePoint.identity(curve).infinity and not curve.G.infinity


def test_tampered_point_rejected(curve):
    data = bytearray(point_to_bytes(curve.G))
    data[5] ^= 0x01
    with pytest.raises(OffCurvePoint):
        decode_point(bytes(data), 0, curve)


@pytest.mark.parametrize("coordinate", ["x", "y"])
def test_coordinate_not_below_p_rejected(tiny_curve, coordinate):
    # on tiny13 (p = 2**13 - 1) a coordinate plus p still fits the encoding's
    # two bytes and, reduced mod p, satisfies the curve equation
    p = tiny_curve.field.p
    x, y = tiny_curve.G.x, tiny_curve.G.y
    if coordinate == "x":
        x += p
    else:
        y += p
    assert x < 1 << 16 and y < 1 << 16 and on_curve(AffinePoint(tiny_curve, x, y))
    data = bytes([0x04]) + x.to_bytes(2, "big") + y.to_bytes(2, "big")
    with pytest.raises(OffCurvePoint, match="not below p"):
        decode_point(data, 0, tiny_curve)


def test_x_equal_to_p_rejected(curve):
    # on secp160r1 b is a square mod p, so x = p with y = sqrt(b) meets the
    # curve equation once x is reduced: only x < p, strictly, refuses it
    with pytest.raises(OffCurvePoint, match="not below p"):
        decode_point(x_equal_p_bytes(curve), 0, curve)


def test_bad_tag_rejected(curve):
    with pytest.raises(BadEncoding):
        decode_point(b"\x02" + b"\x00" * 40, 0, curve)


def test_truncated_point_rejected(curve):
    with pytest.raises(BadEncoding):
        decode_point(point_to_bytes(curve.G)[:30], 0, curve)
