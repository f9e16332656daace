"""Additive homomorphic encryption on the curve group.

A plaintext m is carried as the point m*G, so adding two ciphertexts
component-wise adds the hidden plaintexts: (R1+R2, S1+S2) encrypts m1+m2.
Encryption draws a fresh k and emits (k*G, m*G + k*Y); decryption strips the
mask with the secret key (m*G = S - x*R) and then searches the small message
range for the m whose multiple matches.  The search bound is what keeps the
scheme practical: aggregated sums are assumed to fit a configured number of
bits (24 by default).

Only the holder of the secret key ever inverts a field element or recovers a
plaintext; aggregation itself needs nothing but point additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .counters import counters
from .curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    builtin_curve,
    decode_point,
    ec_add_ajj,
    ec_add_jjj,
    ec_neg,
    lift,
    on_curve,
    point_to_bytes,
    to_affine,
)
from .errors import BadConfig, BadEncoding, MessageTooLarge, NotFound
from .scalarmul import PrecompTable, default_table, mul_binary, mul_interleave, mul_signed
from .textcfg import parse_kv

DEFAULT_MAX_BITS = 24

# Above this search bound the reverse mapping switches from stepping one
# generator at a time to a cached baby-step/giant-step table.
BSGS_THRESHOLD = 4096


@dataclass(frozen=True)
class KeyPair:
    secret_x: int
    public_Y: AffinePoint


class Ciphertext:
    """Pair (R, S) of curve points; the unit the aggregators fold."""

    __slots__ = ("R", "S")

    def __init__(self, R, S):
        self.R = R if isinstance(R, JacobianPoint) else lift(R)
        self.S = S if isinstance(S, JacobianPoint) else lift(S)

    @property
    def curve(self) -> CurveParams:
        return self.R.curve

    def __repr__(self):
        return f"Ciphertext(R={self.R!r}, S={self.S!r})"


def keygen(rng, curve: CurveParams) -> KeyPair:
    """Draw x uniform in [1, order-1] and publish Y = x*G."""
    x = rng.randrange(1, curve.order_n)
    Y = to_affine(mul_binary(x, curve.G))
    return KeyPair(x, Y)


def map_message(m: int, curve: CurveParams, max_bits: int = DEFAULT_MAX_BITS) -> JacobianPoint:
    """Embed a message as the point m*G; zero maps to the identity."""
    if m < 0 or m.bit_length() > max_bits:
        raise MessageTooLarge(f"message must be in [0, 2**{max_bits})")
    return mul_binary(m, curve.G)


def _affine_matches(M_aff: AffinePoint, Q: JacobianPoint) -> bool:
    # cross-multiplied comparison of a normalized point against an accumulator
    Z = Q.Z
    if not Z or M_aff.infinity:
        return not Z and M_aff.infinity
    p = Q.curve.field.p
    zz = Z * Z % p
    c = counters()
    c.fe_mul += 2
    if M_aff.x * zz % p != Q.X:
        return False
    c.fe_mul += 2
    return M_aff.y * (zz * Z % p) % p == Q.Y


def bsgs_cache(curve: CurveParams, max_value: int):
    """(stride, baby table, -stride*G) for searching [0, max_value], built
    once per curve and stride; None when rmap steps through that bound linearly."""
    if max_value <= BSGS_THRESHOLD:
        return None
    stride = 1 << min(14, (max_value.bit_length() + 1) // 2 + 4)
    cached = curve._rmap_cache.get(stride)
    if cached is not None:
        return cached
    babies: dict[int, tuple[int, int]] = {}
    acc = lift(curve.G)
    for j in range(1, stride):
        aff = to_affine(acc)
        babies.setdefault(aff.x, (j, aff.y))
        acc = ec_add_ajj(curve.G, acc)
    neg_stride = ec_neg(to_affine(mul_binary(stride, curve.G)))
    cached = curve._rmap_cache[stride] = (stride, babies, neg_stride)
    return cached


def rmap(M: JacobianPoint, max_value: int) -> int:
    """Recover the m in [0, max_value] with m*G = M.

    Small bounds step through multiples of G one addition at a time; larger
    bounds use baby-step/giant-step with a per-curve cached baby table.
    Raises NotFound when no multiple in range matches, which is how a
    corrupted aggregate or a wrong key shows up.
    """
    if max_value < 0:
        raise ValueError("search bound must be non-negative")
    curve = M.curve
    M_aff = to_affine(M)
    if M_aff.infinity:
        return 0
    cache = bsgs_cache(curve, max_value)
    if cache is None:
        acc = lift(curve.G)
        for m in range(1, max_value + 1):
            if _affine_matches(M_aff, acc):
                return m
            acc = ec_add_ajj(curve.G, acc)
        raise NotFound(f"no preimage at or below {max_value}")
    stride, babies, neg_stride = cache
    cur = M_aff
    for i in range(max_value // stride + 1):
        base = i * stride
        if cur.infinity:
            if base <= max_value:
                return base
        else:
            hit = babies.get(cur.x)
            if hit is not None:
                j, y = hit
                if y == cur.y and base + j <= max_value:
                    return base + j
        cur = to_affine(ec_add_ajj(neg_stride, lift(cur)))
    raise NotFound(f"no preimage at or below {max_value}")


def encrypt(public_Y: AffinePoint, m: int, rng, *, max_bits: int = DEFAULT_MAX_BITS,
            g_table: PrecompTable | None = None) -> Ciphertext:
    """Fresh-randomness encryption of m under the public point.

    The generator multiplication runs over a fixed-base table; the public-key
    multiplication is the table-free signed scan.
    """
    if m < 0 or m.bit_length() > max_bits:
        raise MessageTooLarge(f"message must be in [0, 2**{max_bits})")
    curve = public_Y.curve
    k = rng.randrange(1, curve.order_n)
    if g_table is None:
        g_table = default_table(curve)
    R = mul_interleave(k, g_table)
    S = ec_add_jjj(map_message(m, curve, max_bits), mul_signed(k, public_Y, 2))
    return Ciphertext(R, S)


def ct_add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Component-wise addition; the aggregation operator."""
    return Ciphertext(ec_add_jjj(c1.R, c2.R), ec_add_jjj(c1.S, c2.S))


def ct_identity(curve: CurveParams) -> Ciphertext:
    """The neutral ciphertext: an empty aggregate decrypting to zero."""
    return Ciphertext(JacobianPoint.infinity(curve), JacobianPoint.infinity(curve))


def decrypt(secret_x: int, c: Ciphertext, max_value: int) -> int:
    """Strip the mask (m*G = S - x*R) and search the message range."""
    xR = mul_binary(secret_x, to_affine(c.R))
    M = ec_add_ajj(ec_neg(to_affine(xR)), c.S)
    return rmap(M, max_value)


# ---------------------------------------------------------------------------
# Wire format: R then S, each in the point encoding of the curve module.

def ct_to_bytes(c: Ciphertext) -> bytes:
    return point_to_bytes(to_affine(c.R)) + point_to_bytes(to_affine(c.S))


def ct_from_bytes(data: bytes, curve: CurveParams) -> Ciphertext:
    R, pos = decode_point(data, 0, curve)
    S, pos = decode_point(data, pos, curve)
    if pos != len(data):
        raise BadEncoding("trailing bytes after ciphertext")
    return Ciphertext(R, S)


# ---------------------------------------------------------------------------
# Key files: key=value text with hexadecimal fields.

def save_keypair(kp: KeyPair, prefix) -> tuple[Path, Path]:
    """Write PREFIX.pub and PREFIX.sec; returns the two paths."""
    curve = kp.public_Y.curve
    width = 2 * curve.field.byte_length
    pub = Path(f"{prefix}.pub")
    sec = Path(f"{prefix}.sec")
    pub.write_text(
        f"curve = {curve.name}\n"
        f"yx = {kp.public_Y.x:0{width}x}\n"
        f"yy = {kp.public_Y.y:0{width}x}\n")
    sec.write_text(
        f"curve = {curve.name}\n"
        f"x = {kp.secret_x:0{width}x}\n")
    return pub, sec


def _read_key_file(path, fields: tuple[str, ...]) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise BadConfig(f"cannot read key file: {e}") from None
    try:
        raw = parse_kv(text)
    except ValueError as e:
        raise BadConfig(str(e)) from None
    if "curve" not in raw:
        raise BadConfig("key file missing curve name")
    out = {"curve": builtin_curve(raw["curve"])}
    for key in fields:
        if key not in raw:
            raise BadConfig(f"key file missing field {key!r}")
        try:
            out[key] = int(raw[key], 16)
        except ValueError:
            raise BadConfig(f"field {key!r} is not hexadecimal") from None
    return out


def load_public_key(path) -> AffinePoint:
    """Read a .pub file; the point is validated against its curve."""
    raw = _read_key_file(path, ("yx", "yy"))
    curve = raw["curve"]
    if not (0 <= raw["yx"] < curve.field.p and 0 <= raw["yy"] < curve.field.p):
        raise BadConfig("public key coordinate outside [0, p)")
    Y = AffinePoint(curve, raw["yx"], raw["yy"])
    if not on_curve(Y):
        raise BadConfig("public key is not on the curve")
    return Y


def load_secret_key(path) -> tuple[int, CurveParams]:
    raw = _read_key_file(path, ("x",))
    curve = raw["curve"]
    x = raw["x"]
    if not 1 <= x < curve.order_n:
        raise BadConfig("secret key outside [1, order-1]")
    return x, curve
