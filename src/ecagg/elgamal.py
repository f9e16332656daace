"""Additive homomorphic encryption on the curve group.

A plaintext m is carried as the point m*G, so adding two ciphertexts
component-wise adds the hidden plaintexts: (R1+R2, S1+S2) encrypts m1+m2.
Encryption draws a fresh k and emits (k*G, m*G + k*Y); decryption strips the
mask with the secret key (m*G = S + x*(-R)) and then searches the small
message range for the m whose multiple matches.  The search bound is what
keeps the scheme practical: aggregated sums are assumed to fit a configured
number of bits (24 by default, at most MAX_SEARCH_BITS).

The reader's public key Y is as fixed as G, so both encryption
multiplications run over the tables fixed_base_table caches: keygen builds
Y's table along with Y (the reader provisions sensors with both), and
S = k*Y + m*G is one doubling chain, m's recoding riding on the generator
table's first track (Shamir's trick).

The search is baby-step/giant-step at every bound, over one baby/giant
table cached per curve: the one for the largest stride asked for so far,
which also serves every smaller bound.  It uses the negation map: j*G and
-j*G share an x, so one baby entry matches both signs and each giant step
covers twice the stride.  It shares inversions wherever it can (Montgomery's
trick, mod_inv_batch): both tables are built in lanes of affine points that
advance together, a block of affine additions per inversion, and giant steps
are affine additions batched to one inversion.

Only the holder of the secret key ever inverts a field element or recovers a
plaintext; aggregation itself needs nothing but point additions.
"""

from __future__ import annotations

import os
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
    to_affine_batch,
)
from .errors import BadConfig, BadEncoding, MessageTooLarge, NotFound
from .field import mod_inv_batch
from .scalarmul import (
    default_table,
    fixed_base_table,
    mul_binary,
    mul_interleave,
    mul_signed,
)
from .textcfg import parse_kv, read_text

DEFAULT_MAX_BITS = 24

# Widest search bound: the giant table holds about bound // 2**15 points.
MAX_SEARCH_BITS = 32
# Lanes of affine points advanced together when the tables are built, one
# shared inversion per block; a bounded block keeps the memory a build holds
# beyond its tables flat (normalizing all 2**14 baby points at once measured
# 4.3 MB more peak memory).
_NORMALIZE_CHUNK = 256
# Giant steps sharing one inversion.
_GIANT_BATCH = 32


@dataclass(frozen=True)
class KeyPair:
    secret_x: int
    public_Y: AffinePoint


class Ciphertext:
    """Pair (R, S) of curve points; the unit the aggregators fold."""

    __slots__ = ("R", "S")

    def __init__(self, R: JacobianPoint, S: JacobianPoint):
        self.R = R
        self.S = S

    def __repr__(self):
        return f"Ciphertext(R={self.R!r}, S={self.S!r})"


def keygen(rng, curve: CurveParams) -> KeyPair:
    """Draw x uniform in [1, order-1] and publish Y = x*G, with Y's
    fixed-base table built and cached on the curve for encrypt."""
    x = rng.randrange(1, curve.order_n)
    Y = to_affine(mul_binary(x, curve.G))
    fixed_base_table(Y)
    return KeyPair(x, Y)


def map_message(m: int, curve: CurveParams) -> JacobianPoint:
    """Embed a message in [0, 2**DEFAULT_MAX_BITS) as the point m*G; zero
    maps to the identity."""
    if m < 0 or m.bit_length() > DEFAULT_MAX_BITS:
        raise MessageTooLarge(f"message must be in [0, 2**{DEFAULT_MAX_BITS})")
    return mul_binary(m, curve.G)


def _lanes_plus(curve: CurveParams, xs: list[int], ys: list[int], qx: int, qy: int):
    """(x, y) lists of P + Q for every lane P = (xs[i], ys[i]), affine
    additions sharing one inversion (mod_inv_batch).

    A lane equal to Q is doubled within the batch; no lane may be opposite
    to Q, as the identity has no (x, y).  Each sum is the slope, x3 and y3
    at one multiplication each, a doubling one more for x**2, plus its share
    of the batch inversion.
    """
    p = curve.field.p
    nums = [y - qy for y in ys]
    dens = [x - qx for x in xs]
    doublings = 0
    if 0 in dens:
        for i in [i for i, d in enumerate(dens) if not d and not nums[i]]:
            nums[i] = 3 * qx * qx + curve.a
            dens[i] = 2 * qy
            doublings += 1
    c = counters()
    c.ecadd += len(xs) - doublings
    c.ecdbl += doublings
    c.fe_mul += 3 * len(xs) + doublings
    invs = mod_inv_batch(curve.field, dens)
    # no other list of lane-sized numbers is alive while the sums are stored
    # (the denominators are dropped, the slopes made one at a time): each
    # measured 0.1-0.2 MB more peak memory at the 2**24 build
    del dens
    out_x, out_y = [], []
    for x, num, inv in zip(xs, nums, invs):
        lam = num * inv % p
        x3 = (lam * lam - x - qx) % p
        out_x.append(x3)
        out_y.append((lam * (qx - x3) - qy) % p)
    return out_x, out_y


def _chain(step: AffinePoint, count: int):
    """Yield (x, y) of step, 2*step, ..., count*step.

    The points are computed in L = _NORMALIZE_CHUNK lanes of affine points
    that all advance by L*step, one batch of affine additions (_lanes_plus)
    per block, so only two lists of L coordinates are alive at a time and
    peak memory stays flat whatever the count.  The first block comes from a
    ladder: k*step for k <= n plus n*step gives n < k <= 2n (k = 2n a
    doubling), one batch per level; on the first advance lane L holds
    L*step itself and is doubled.  Lane k only ever holds a multiple of step
    no larger than count, so none sums to the identity while count stays
    below the step's order.
    """
    if count <= 0:
        return
    curve = step.curve
    first = min(count, _NORMALIZE_CHUNK)
    xs, ys = [step.x], [step.y]
    while len(xs) < first:
        more = min(len(xs), first - len(xs))
        nx, ny = _lanes_plus(curve, xs[:more], ys[:more], xs[-1], ys[-1])
        xs += nx
        ys += ny
    # first*step, the advance of a whole block when count exceeds one
    dx, dy = xs[-1], ys[-1]
    yield from zip(xs, ys)
    for done in range(first, count, first):
        more = min(first, count - done)
        xs, ys = _lanes_plus(curve, xs[:more], ys[:more], dx, dy)
        yield from zip(xs, ys)


def bsgs_cache(curve: CurveParams, max_value: int):
    """(stride, baby table, giant x list, giant y list) for searching
    [0, max_value].

    The baby table maps the x of j*G to j << 1 | (y & 1), j and the parity
    of j*G's y, for 1 <= j <= stride; since -j*G shares that x, one entry
    answers both signs, and as p is odd its y, p - y, has the other parity
    (one int per entry, where a (j, y) tuple measured 1.6 MB more at the
    2**24 bound).  Entry i - 1 of the
    giant lists is -i*2*stride*G for 1 <= i <= _giant_steps(max_value,
    stride), so giant step i covers the window [2*i*stride - stride,
    2*i*stride + stride].  The stride grows with the bound (16 at bound 0,
    512 at 1000, 2**14 from 2**18 up).  A curve caches one entry, the one
    with the largest stride asked for so far: a smaller bound reuses it with
    fewer giant steps, a larger stride replaces it, and a bound that needs
    more giant steps keeps the baby table and rebuilds the giant lists at
    the new length.  The giant table grows with the bound (2**17 points,
    about 14 MB, at 32 bits), so a bound outside [0, 2**MAX_SEARCH_BITS)
    raises MessageTooLarge before any point work.
    """
    if not 0 <= max_value < 1 << MAX_SEARCH_BITS:
        raise MessageTooLarge(f"search bound must be in [0, 2**{MAX_SEARCH_BITS})")
    stride = 1 << min(14, (max_value.bit_length() + 1) // 2 + 4)
    cached = curve._rmap_cache
    if cached is None or cached[0] < stride:
        # drop the smaller table before building, so the two never coexist
        cached = curve._rmap_cache = None
        babies = {x: j << 1 | (y & 1) for j, (x, y) in enumerate(_chain(curve.G, stride), 1)}
        cached = curve._rmap_cache = (stride, babies, [], [])
    stride, _, gxs, gys = cached
    steps = _giant_steps(max_value, stride)
    if len(gxs) < steps:
        gxs.clear()
        gys.clear()
        for x, y in _chain(ec_neg(to_affine(mul_binary(2 * stride, curve.G))), steps):
            gxs.append(x)
            gys.append(y)
    return cached


def _giant_steps(max_value: int, stride: int) -> int:
    """Giant steps whose windows reach [0, max_value]: the last window's
    center 2*i*stride is at most max_value + stride."""
    return (max_value + stride) // (2 * stride)


def rmap(M: JacobianPoint, max_value: int) -> int:
    """Recover the m in [0, max_value] with m*G = M.

    Baby-step/giant-step over bsgs_cache with the negation map: M itself is
    looked up in the baby table, then giant step i is the affine sum
    M + (-c*G) for the center c = 2*i*stride.  A match in the baby table at
    x3 is told apart by the parity of y3: the baby's gives m = c + j, the
    other m = c - j, and either m must lie in [0, max_value] (the last
    window reaches past the bound).  Steps run in batches of _GIANT_BATCH
    sharing one inversion (mod_inv_batch over the x differences); a step
    computes only the slope and x3, and y3 only when x3 is in the table.
    Each giant step counts as one ECADD with 2 multiplications plus its
    share of the batch inversion, and 1 more on an x hit.  A bound below
    the cached stride is answered by the baby table alone, with no giant
    step.

    Raises NotFound when no multiple in range matches, which is how a
    corrupted aggregate or a wrong key shows up, and MessageTooLarge for a
    bound outside [0, 2**MAX_SEARCH_BITS).
    """
    curve = M.curve
    stride, babies, gxs, gys = bsgs_cache(curve, max_value)
    M_aff = to_affine(M)
    if M_aff.infinity:
        return 0
    f = curve.field
    p = f.p
    xM, yM = M_aff.x, M_aff.y
    hit = babies.get(xM)
    if hit is not None and (hit ^ yM) & 1 == 0 and hit >> 1 <= max_value:
        return hit >> 1
    c = counters()
    span = 2 * stride
    steps = _giant_steps(max_value, stride)
    # entry t of the giant lists is giant step t + 1, centered on (t + 1)*span
    for lo in range(0, steps, _GIANT_BATCH):
        hi = min(lo + _GIANT_BATCH, steps)
        batch = range(lo, hi)
        dxs = [x - xM for x in gxs[lo:hi]]
        if 0 in dxs:
            t = lo + dxs.index(0)
            if gys[t] != yM and (t + 1) * span <= max_value:
                # M = (t + 1)*span*G: the step lands on the identity
                return (t + 1) * span
            # M is (t + 1)*span*G above the bound, or the giant point
            # -(t + 1)*span*G itself, whose log lies far above it: either way
            # no m in range is left, and the step (a doubling or the
            # identity) is skipped
            del dxs[t - lo]
            batch = [s for s in batch if s != t]
        for done, (t, inv) in enumerate(zip(batch, mod_inv_batch(f, dxs)), 1):
            lam = (gys[t] - yM) * inv % p
            x3 = (lam * lam - xM - gxs[t]) % p
            hit = babies.get(x3)
            if hit is not None:
                c.fe_mul += 1
                y3 = (lam * (xM - x3) - yM) % p
                center = (t + 1) * span
                m = center + (hit >> 1) if (hit ^ y3) & 1 == 0 else center - (hit >> 1)
                if m <= max_value:
                    c.ecadd += done
                    c.fe_mul += 2 * done
                    return m
        c.ecadd += len(dxs)
        c.fe_mul += 2 * len(dxs)
    raise NotFound(f"no preimage at or below {max_value}")


def encrypt(public_Y: AffinePoint, m: int, rng) -> Ciphertext:
    """Fresh-randomness encryption of m < 2**DEFAULT_MAX_BITS under the public point.

    Both multiplications run over the (8, 4) tables that fixed_base_table
    caches: R = k*G over the curve's generator table, and S = k*Y + m*G in
    one doubling chain over Y's table, with m's recoding one more row over
    track 0 of the generator table.  The two tables share their shape, so k
    is split and recoded once (mul_interleave keeps the last recoding) and
    its rows serve both chains.  A key from this process's keygen finds its
    table built; any other key, such as one from load_public_key, pays one
    table build on first use.
    """
    if m < 0 or m.bit_length() > DEFAULT_MAX_BITS:
        raise MessageTooLarge(f"message must be in [0, 2**{DEFAULT_MAX_BITS})")
    curve = public_Y.curve
    g_table = default_table(curve)
    y_table = fixed_base_table(public_Y)
    k = rng.randrange(1, curve.order_n)
    return Ciphertext(mul_interleave(k, g_table), mul_interleave(k, y_table, m, g_table))


def ct_add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Component-wise addition; the aggregation operator."""
    return Ciphertext(ec_add_jjj(c1.R, c2.R), ec_add_jjj(c1.S, c2.S))


def ct_identity(curve: CurveParams) -> Ciphertext:
    """The neutral ciphertext: an empty aggregate decrypting to zero."""
    return Ciphertext(JacobianPoint.infinity(curve), JacobianPoint.infinity(curve))


def decrypt(secret_x: int, c: Ciphertext, max_value: int) -> int:
    """Strip the mask (m*G = S + x*(-R)) and search the message range.

    The bound is checked (and the search tables built) before x*(-R), which
    runs over the width-2 signed recoding: a third fewer additions than
    binary and, unlike wider recodings, no odd multiples to normalize.  The
    product stays Jacobian and S is the affine operand of the mixed
    addition; R and S as decoded from the wire are affine already, so the
    only inversion besides the giant-step batches is rmap's normalization
    of M.
    """
    bsgs_cache(c.R.curve, max_value)
    return rmap(ec_add_ajj(to_affine(c.S), mul_signed(secret_x, ec_neg(to_affine(c.R)), 2)),
                max_value)


# ---------------------------------------------------------------------------
# Wire format: R then S, each in the point encoding of the curve module.

def ct_to_bytes(c: Ciphertext) -> bytes:
    """R and S normalized together, for one inversion at most."""
    return b"".join(point_to_bytes(P) for P in to_affine_batch([c.R, c.S]))


def ct_from_bytes(data: bytes, curve: CurveParams) -> Ciphertext:
    R, pos = decode_point(data, 0, curve)
    S, pos = decode_point(data, pos, curve)
    if pos != len(data):
        raise BadEncoding("trailing bytes after ciphertext")
    return Ciphertext(lift(R), lift(S))


# ---------------------------------------------------------------------------
# Key files: key=value text with hexadecimal fields.

def save_keypair(kp: KeyPair, prefix) -> tuple[Path, Path]:
    """Write PREFIX.pub and PREFIX.sec, the secret one with mode 0600;
    returns the two paths.  Raises BadConfig, before writing anything, when
    either file exists: a key pair is never overwritten.
    """
    curve = kp.public_Y.curve
    width = 2 * curve.field.byte_length
    pub = Path(f"{prefix}.pub")
    sec = Path(f"{prefix}.sec")
    for path in (pub, sec):
        if path.exists():
            raise BadConfig(f"{path} exists; refusing to overwrite a key file")
    pub.write_text(
        f"curve = {curve.name}\n"
        f"yx = {kp.public_Y.x:0{width}x}\n"
        f"yy = {kp.public_Y.y:0{width}x}\n")
    with os.fdopen(os.open(sec, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600), "w") as out:
        out.write(
            f"curve = {curve.name}\n"
            f"x = {kp.secret_x:0{width}x}\n")
    return pub, sec


def _read_key_file(path, fields: tuple[str, ...]) -> dict:
    """The key file's hex fields, and its curve built only once they parse."""
    raw = parse_kv(read_text(path, BadConfig, "key file"), BadConfig, ("curve",) + fields, fields)
    raw["curve"] = builtin_curve(raw["curve"])
    return raw


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
