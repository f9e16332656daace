"""Short-Weierstrass group law in affine and Jacobian coordinates.

Point addition takes its first operand in affine and its second in Jacobian
coordinates and yields Jacobian (the cheapest mixed form); doubling is
Jacobian in and out.  The sensing path never inverts: equality and special
cases are decided by cross-multiplication.  Conversion back to affine is
for table builds, serialization and the reader.  to_affine_batch does it,
sharing one inversion across its points, everywhere but in
elgamal.ct_to_bytes, which normalizes a ciphertext's R and S pair inline
for the aggregator hop's speed (its docstring has the numbers).

A point with Z = 0 is the group identity in Jacobian coordinates; affine
points carry an explicit infinity flag instead.  Points refer to their
curve, never the reverse: a curve keeps its generator's coordinates,
building G on each access, and caches only plain ints, so it is freed with
everything it caches when its last reference goes.

Coordinates are plain integers in [0, p).  Each formula is straight-line
code reducing with CPython's ``%`` (see the field module for why), and
every formula tallies itself: it adds its fixed multiplication count to
the counters once, squarings counted as multiplications: 8 for dbl-2001-b
(a = -3; 10 for a general a), 6 for mmadd-2007-bl (both operands at Z = 1),
11 for madd-2007-bl and 16 for add-2007-bl (hyperelliptic.org/EFD).
scalarmul's scan inlines dbl-2001-b, madd-2007-bl and, for an odd multiple
whose Z**2 and Z**3 it caches, add-2007-bl at 14 for its common case, and
hands every special case back to the functions here.
"""

from __future__ import annotations

import importlib.resources

from .counters import counters
from .errors import BadConfig, BadEncoding, InvalidCurve, OffCurvePoint
from .field import FieldParams, is_probable_prime, mod_inv_batch
from .textcfg import parse_kv

_CONFIG_KEYS = ("name", "n", "c", "a", "b", "gx", "gy", "order_n")


class AffinePoint:
    """Curve point (x, y), or the identity when the flag is set."""

    __slots__ = ("curve", "x", "y", "infinity")

    def __init__(self, curve, x=None, y=None, infinity=False):
        self.curve = curve
        self.x = x
        self.y = y
        self.infinity = infinity

    @classmethod
    def identity(cls, curve):
        return cls(curve, infinity=True)

    def __eq__(self, other):
        if not isinstance(other, AffinePoint):
            return NotImplemented
        c1, c2 = self.curve, other.curve
        # the same curve loaded twice is two objects with one group
        if c1 is not c2 and (c1.field.p, c1.a, c1.b) != (c2.field.p, c2.a, c2.b):
            return False
        if self.infinity or other.infinity:
            return self.infinity and other.infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.infinity:
            return hash(("affine", None))
        return hash(("affine", self.x, self.y))

    def __repr__(self):
        if self.infinity:
            return "AffinePoint(identity)"
        return f"AffinePoint({self.x:#x}, {self.y:#x})"


class _JacobianType(type):
    """JacobianPoint's metaclass.  Its infinity is read on the class as a
    plain method, with no Python-level __get__, and never on a point, where
    a bound method would always be truthy (AffinePoint's infinity is a
    flag): Q.infinity raises AttributeError."""

    def infinity(cls, curve):
        return cls(curve, 1, 1, 0)


class JacobianPoint(metaclass=_JacobianType):
    """Curve point (X, Y, Z) with affine image (X/Z**2, Y/Z**3); Z = 0 is
    the identity, which JacobianPoint.infinity(curve) builds."""

    __slots__ = ("curve", "X", "Y", "Z")

    def __init__(self, curve, X, Y, Z):
        self.curve = curve
        self.X = X
        self.Y = Y
        self.Z = Z

    @property
    def is_infinity(self) -> bool:
        return self.Z == 0

    def __repr__(self):
        if self.is_infinity:
            return "JacobianPoint(identity)"
        return f"JacobianPoint({self.X:#x}, {self.Y:#x}, {self.Z:#x})"


class CurveParams:
    """Validated domain parameters: curve coefficients, generator, group order.

    G builds the generator from its stored coordinates on each access, and
    the caches hold plain ints, so nothing here refers back to the curve:
    reference counting frees it and its caches when its last reference goes.
    """

    __slots__ = ("field", "a", "b", "_g", "order_n", "name", "a_is_minus3",
                 "_tables", "_rmap_cache")

    def __init__(self, field: FieldParams, a: int, b: int, gx: int, gy: int,
                 order_n: int, name: str):
        p = field.p
        if not (0 <= a < p and 0 <= b < p and 0 <= gx < p and 0 <= gy < p):
            raise InvalidCurve("coefficient or coordinate outside [0, p)")
        # SEC 1 v2.0, 3.1.1.2.1: order_n prime and in Hasse's interval
        # |p + 1 - order_n| <= 2*sqrt(p).  The curve's order is a multiple of
        # order_n in that interval, and for p > 33 the next multiple lies
        # beyond it, so the cofactor is 1: every point decode_point accepts
        # lies in <G>.  The interval also bounds the doublings that check
        # order_n * G below, and both checks come before any point work.
        if (p + 1 - order_n) ** 2 > 4 * p:
            raise InvalidCurve("group order outside Hasse's interval")
        if not is_probable_prime(order_n):
            raise InvalidCurve("group order is not prime")
        disc = (4 * a * a * a + 27 * b * b) % p
        if disc == 0:
            raise InvalidCurve("singular curve: 4a^3 + 27b^2 = 0")
        self.field = field
        self.a = a
        self.b = b
        self.order_n = order_n
        self.name = name
        self.a_is_minus3 = a == p - 3
        # fixed-base tables' tracks by base (x, y) (scalarmul.fixed_base_table)
        self._tables = {}
        self._rmap_cache = None
        self._g = (gx, gy)
        G = self.G
        if not on_curve(G):
            raise InvalidCurve("generator not on curve")
        from .scalarmul import mul_binary  # deferred: scalarmul imports this module
        if not mul_binary(order_n, G).is_infinity:
            raise InvalidCurve("order_n * G is not the identity")

    @property
    def G(self) -> AffinePoint:
        """The generator, a new point on each access."""
        return AffinePoint(self, *self._g)

    def __repr__(self):
        return f"CurveParams({self.name!r}, n={self.field.n})"


def on_curve(P: AffinePoint) -> bool:
    """True for the identity and for (x, y) satisfying y^2 = x^3 + ax + b."""
    if P.infinity:
        return True
    cur, x = P.curve, P.x
    p = cur.field.p
    counters().fe_mul += 3
    return not (P.y * P.y - (x * x + cur.a) * x - cur.b) % p


def lift(P: AffinePoint) -> JacobianPoint:
    """Embed an affine point into Jacobian coordinates with Z = 1."""
    if P.infinity:
        return JacobianPoint.infinity(P.curve)
    return JacobianPoint(P.curve, P.x, P.y, 1)


def ec_dbl_jj(Q: JacobianPoint) -> JacobianPoint:
    """Double a Jacobian point; Y = 0 and the identity both double to the identity."""
    X1, Y1, Z1 = Q.X, Q.Y, Q.Z
    if not Z1 or not Y1:
        return JacobianPoint.infinity(Q.curve)
    cur = Q.curve
    p = cur.field.p
    c = counters()
    c.ecdbl += 1
    yy = Y1 * Y1 % p
    s = (X1 * yy % p) << 2
    z1z1 = Z1 * Z1 % p
    if cur.a_is_minus3:
        # 3*(X1 - Z1^2)*(X1 + Z1^2) saves the a*Z^4 multiplication
        c.fe_mul += 8
        m = 3 * (X1 - z1z1) * (X1 + z1z1) % p
    else:
        c.fe_mul += 10
        m = (3 * X1 * X1 + cur.a * (z1z1 * z1z1 % p)) % p
    x3 = (m * m - (s << 1)) % p
    y3 = (m * (s - x3) - (yy * yy << 3)) % p
    return JacobianPoint(cur, x3, y3, (Y1 * Z1 << 1) % p)


def ec_add_ajj(P: AffinePoint, Q: JacobianPoint) -> JacobianPoint:
    """Mixed addition P + Q: affine first operand, Jacobian second and result.

    Neutral operands, equal points and opposite points are ordinary results,
    detected projectively without any inversion.
    """
    if P.infinity:
        return Q
    if not Q.Z:
        return lift(P)
    return _madd(P.x, P.y, Q)


def _madd(x2: int, y2: int, Q: JacobianPoint) -> JacobianPoint:
    """(x2, y2) + Q by madd-2007-bl, for an affine point and a Q that is not
    the identity: 11 multiplications, or 4 to find equal x."""
    X1, Y1, Z1 = Q.X, Q.Y, Q.Z
    cur = Q.curve
    p = cur.field.p
    c = counters()
    z1z1 = Z1 * Z1 % p
    u2 = x2 * z1z1 % p
    s2 = y2 * (Z1 * z1z1 % p) % p
    if u2 == X1:
        c.fe_mul += 4
        if s2 == Y1:
            return ec_dbl_jj(Q)
        # same affine x, different y: the operands are opposite points
        return JacobianPoint.infinity(cur)
    c.ecadd += 1
    c.fe_mul += 11
    h = u2 - X1
    hh = h * h % p
    i = hh << 2
    j = h * i % p
    r = (s2 - Y1) << 1
    v = X1 * i % p
    x3 = (r * r - j - (v << 1)) % p
    y3 = (r * (v - x3) - (Y1 * j << 1)) % p
    z3 = ((Z1 + h) * (Z1 + h) - z1z1 - hh) % p
    return JacobianPoint(cur, x3, y3, z3)


def ec_add_jjj(Q1: JacobianPoint, Q2: JacobianPoint) -> JacobianPoint:
    """Q1 + Q2 in Jacobian coordinates, for folding ciphertexts and chaining
    odd multiples.

    Aggregation adds accumulators and points fresh off the wire, which sit
    at Z = 1, so the formula follows the operands' Z: mmadd-2007-bl when
    both are at Z = 1 (6 multiplications; equal x shows in X and Y at no
    cost), madd-2007-bl with the Z = 1 operand as its affine one when just
    one is (ec_add_ajj's _madd: 11, or 4 at equal x), and add-2007-bl
    otherwise (16, or 8 at equal x).  Equal points double and opposite ones
    give the identity, with no inversion on any path.
    """
    X1, Y1, Z1 = Q1.X, Q1.Y, Q1.Z
    X2, Y2, Z2 = Q2.X, Q2.Y, Q2.Z
    if not Z1:
        return Q2
    if not Z2:
        return Q1
    cur = Q1.curve
    p = cur.field.p
    c = counters()
    if Z1 == 1 and Z2 == 1:
        if X1 == X2:
            return ec_dbl_jj(Q1) if Y1 == Y2 else JacobianPoint.infinity(cur)
        c.ecadd += 1
        c.fe_mul += 6
        h = X2 - X1
        hh = h * h % p
        i = hh << 2
        j = h * i % p
        r = (Y2 - Y1) << 1
        v = X1 * i % p
        x3 = (r * r - j - (v << 1)) % p
        return JacobianPoint(cur, x3, (r * (v - x3) - (Y1 * j << 1)) % p, (h << 1) % p)
    if Z1 == 1 or Z2 == 1:
        return _madd(X1, Y1, Q2) if Z1 == 1 else _madd(X2, Y2, Q1)
    z1z1 = Z1 * Z1 % p
    z2z2 = Z2 * Z2 % p
    u1 = X1 * z2z2 % p
    u2 = X2 * z1z1 % p
    s1 = Y1 * (Z2 * z2z2 % p) % p
    s2 = Y2 * (Z1 * z1z1 % p) % p
    if u1 == u2:
        c.fe_mul += 8
        return ec_dbl_jj(Q1) if s1 == s2 else JacobianPoint.infinity(cur)
    c.ecadd += 1
    c.fe_mul += 16
    h = u2 - u1
    i = (h * h << 2) % p
    j = h * i % p
    r = (s2 - s1) << 1
    v = u1 * i % p
    x3 = (r * r - j - (v << 1)) % p
    y3 = (r * (v - x3) - (s1 * j << 1)) % p
    z3 = ((Z1 + Z2) * (Z1 + Z2) - z1z1 - z2z2) * h % p
    return JacobianPoint(cur, x3, y3, z3)


def ec_neg(P: AffinePoint) -> AffinePoint:
    """Mirror a point across the x axis; the identity is its own negative."""
    if P.infinity:
        return P
    return AffinePoint(P.curve, P.x, -P.y % P.curve.field.p)


def ec_eq(Q1: JacobianPoint, Q2: JacobianPoint) -> bool:
    """Projective equality: X1*Z2^2 = X2*Z1^2 and Y1*Z2^3 = Y2*Z1^3."""
    Z1, Z2 = Q1.Z, Q2.Z
    if not Z1 or not Z2:
        return not Z1 and not Z2
    p = Q1.curve.field.p
    c = counters()
    c.fe_mul += 4
    z1z1 = Z1 * Z1 % p
    z2z2 = Z2 * Z2 % p
    if Q1.X * z2z2 % p != Q2.X * z1z1 % p:
        return False
    c.fe_mul += 4
    return Q1.Y * (Z2 * z2z2 % p) % p == Q2.Y * (Z1 * z1z1 % p) % p


def to_affine(Q: JacobianPoint) -> AffinePoint:
    """to_affine_batch of Q alone."""
    return to_affine_batch([Q])[0]


def to_affine_batch(Qs: list[JacobianPoint]) -> list[AffinePoint]:
    """The affine image of every point for at most one inversion: the points
    with Z other than 0 and 1 share it (mod_inv_batch) and cost 4
    multiplications each to scale, the rest need none."""
    curve = Qs[0].curve
    p = curve.field.p
    pending = [Q.Z for Q in Qs if Q.Z not in (0, 1)]
    zinvs = iter(mod_inv_batch(curve.field, pending))
    counters().fe_mul += 4 * len(pending)
    out = []
    for Q in Qs:
        if not Q.Z:
            out.append(AffinePoint.identity(curve))
        elif Q.Z == 1:
            out.append(AffinePoint(curve, Q.X, Q.Y))
        else:
            zinv = next(zinvs)
            zi2 = zinv * zinv % p
            out.append(AffinePoint(curve, Q.X * zi2 % p, Q.Y * (zi2 * zinv % p) % p))
    return out


# ---------------------------------------------------------------------------
# Wire encoding: 0x00 for the identity, else 0x04 || X || Y big-endian.

_UNCOMPRESSED = 0x04
_IDENTITY = 0x00


def point_to_bytes(P: AffinePoint) -> bytes:
    if P.infinity:
        return bytes([_IDENTITY])
    blen = P.curve.field.byte_length
    return bytes([_UNCOMPRESSED]) + (P.x << 8 * blen | P.y).to_bytes(2 * blen, "big")


def decode_point(data: bytes, pos: int, curve: CurveParams) -> tuple[JacobianPoint, int]:
    """Decode one point starting at pos; returns (point, next position).

    The point comes lifted, as aggregation adds it: Z = 1, or Z = 0 for the
    identity.  x || y is read by one int.from_bytes and split at
    8 * byte_length bits, not at the field's n: where n is not a multiple
    of 8 the bits above n in y's bytes must reach the range check.
    Coordinates must lie below p and meet the curve equation, which is
    checked as on_curve checks it, by one reduction of y^2 - x^3 - ax - b,
    tallied as its 3 multiplications.
    """
    if pos >= len(data):
        raise BadEncoding("truncated point")
    tag = data[pos]
    if tag == _IDENTITY:
        return JacobianPoint.infinity(curve), pos + 1
    if tag != _UNCOMPRESSED:
        raise BadEncoding(f"unknown point tag {tag:#04x}")
    blen = curve.field.byte_length
    end = pos + 1 + 2 * blen
    if end > len(data):
        raise BadEncoding("truncated point payload")
    bits = 8 * blen
    xy = int.from_bytes(data[pos + 1:end], "big")
    x = xy >> bits
    y = xy & ((1 << bits) - 1)
    p = curve.field.p
    if x >= p or y >= p:
        raise OffCurvePoint("coordinate not below p")
    counters().fe_mul += 3
    if (y * y - (x * x + curve.a) * x - curve.b) % p:
        raise OffCurvePoint("coordinates fail the curve equation")
    return JacobianPoint(curve, x, y, 1), end


# ---------------------------------------------------------------------------
# Curve configuration files.

def curve_from_config(text: str) -> CurveParams:
    """Build validated parameters from key=value text with hex fields."""
    vals = parse_kv(text, BadConfig, _CONFIG_KEYS, _CONFIG_KEYS[1:])
    if len(vals["name"].encode()) > 255:
        # a table file spends one byte on the name's length
        raise BadConfig("curve name longer than 255 UTF-8 bytes")
    try:
        fp = FieldParams(vals["n"], vals["c"])
    except ValueError as e:
        raise InvalidCurve(str(e)) from None
    return CurveParams(fp, vals["a"], vals["b"], vals["gx"], vals["gy"],
                       vals["order_n"], vals["name"])


def builtin_curve(name: str = "secp160r1") -> CurveParams:
    """One of the curve profiles shipped with the package, by file stem.

    Key files name their curve, so the name is outside input: only the stem
    of a shipped ``data/*.curve`` file is looked up, never a path.
    """
    data = importlib.resources.files("ecagg").joinpath("data")
    if name + ".curve" not in {res.name for res in data.iterdir()}:
        raise BadConfig(f"no built-in curve named {name!r}")
    return curve_from_config(data.joinpath(name + ".curve").read_text())
