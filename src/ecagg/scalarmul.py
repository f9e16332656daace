"""Scalar multiplication: the binary reference and one table-driven scan.

mul_binary, left-to-right double-and-add, is the independent reference:
keygen, message mapping and curve validation run on it, and the tests
compare every other multiplier and every table against it.  mul_signed and
mul_interleave only build rows of signed digits, each over its base's
signed odd multiples, and return one scan over them: a single shared
doubling chain and one mixed addition per nonzero digit, its two hot
formulas copied from the curve module to run inline on local integers.

Signed recodings cut the number of additions: a width-w recoding has only
odd digits no larger than 2**(w-1) - 1, at most one nonzero digit in any w
consecutive positions, and an average nonzero fraction of 1/(1+w).
Negative digits cost nothing extra: negating a point mirrors its y.

For a fixed base the interleaved method also cuts doublings: the scalar is
split into t tracks of n/t bits, one row per track over its own shifted
base 2**((i-1)*n/t) * G, so the chain is n/t steps long.  The shifted bases
and the odd multiples needed by widths above 2 are precomputed; beyond the
generator itself that is (t-1) + t*(2**(w-2) - 1) stored points, kept as
one signed-digit lookup per track.  Any fixed point can be the base: every
encryption runs k*G and k*Y over the FIXED_BASE_SHAPE tables that
fixed_base_table caches.  mul_interleave folds m*G into the k*Y chain as one
more row over the first track of the generator's table (Shamir's trick).
Both tables have the same shape, so one split and recoding of k serves both
chains.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .counters import counters
from .curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    decode_point,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    ec_neg,
    lift,
    point_to_bytes,
    to_affine,
    to_affine_batch,
)
from .errors import BadEncoding, TableMismatch, UnsupportedWidth

MAX_RECODING_WIDTH = 4

# (t, w) of the tables fixed_base_table builds: 8 tracks of 20 bits on
# secp160r1, each holding its shifted base and that base's 3, 5 and 7
# multiples.  That is 32 affine points of 40 bytes per base, 1,280 bytes, or
# 2,560 bytes for G and the public key together: the RAM an encryption pays
# for chains of 20 doublings, against 40 at (4, 4) with half the points.
FIXED_BASE_SHAPE = (8, 4)

_TABLE_MAGIC = b"EPT3"


def mul_binary(k: int, P: AffinePoint) -> JacobianPoint:
    """Left-to-right double-and-add; the no-recoding baseline."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
    R = JacobianPoint.infinity(P.curve)
    for i in range(k.bit_length() - 1, -1, -1):
        R = ec_dbl_jj(R)
        if (k >> i) & 1:
            R = ec_add_ajj(P, R)
    return R


def wmof_recode(k: int, w: int) -> tuple[int, ...]:
    """Width-w signed recoding with odd digits and w-sparse nonzeros.

    Digits are little-endian: digit i has weight 2**i.  Every nonzero digit
    is odd with |d| <= 2**(w-1) - 1, any w consecutive positions hold at
    most one nonzero digit, and the digits reconstruct k.  Emitting an odd
    digit clears the w-1 positions above it, which is what guarantees the
    sparsity.
    """
    if w < 2 or w > MAX_RECODING_WIDTH:
        raise UnsupportedWidth(f"width {w} outside [2, {MAX_RECODING_WIDTH}]")
    if k < 0:
        raise ValueError("scalar must be non-negative")
    if k == 0:
        return (0,)
    half = 1 << (w - 1)
    full = half << 1
    digits = []
    while k:
        if k & 1:
            d = k & (full - 1)
            if d > half:
                d -= full
            digits.append(d)
            k -= d
        else:
            digits.append(0)
        k >>= 1
    return tuple(digits)


def _signed_lookup(P: AffinePoint, w: int) -> dict[int, AffinePoint]:
    """P's width-w lookup by signed digit: d -> d*P and -d -> -(d*P) for odd
    d up to 2**(w-1) - 1.  The multiples above P are chained additions of a
    Jacobian 2P, normalized together for one inversion."""
    odd = [P]
    if w > 2:
        dbl = ec_dbl_jj(lift(P))
        chain = [ec_add_ajj(P, dbl)]
        for _ in range(5, 1 << (w - 1), 2):
            chain.append(ec_add_jjj(dbl, chain[-1]))
        odd += to_affine_batch(chain)
    lookup = dict(zip(range(1, 1 << (w - 1), 2), odd))
    return {**lookup, **{-d: ec_neg(pt) for d, pt in lookup.items()}}


def split_scalar(k: int, t: int, n_bits: int) -> list[int]:
    """Split k into t tracks of ceil(n_bits/t) bits, least significant first.

    n_bits is padded up so the chunk width divides it evenly.  The top track
    keeps any bits beyond the design width, so recombination
    sum(k_i * 2**((i-1)*chunk)) is exact for every k.
    """
    if t < 1:
        raise ValueError("track count must be at least 1")
    if k < 0:
        raise ValueError("scalar must be non-negative")
    chunk = -(-n_bits // t)
    mask = (1 << chunk) - 1
    parts = [(k >> (i * chunk)) & mask for i in range(t - 1)]
    parts.append(k >> ((t - 1) * chunk))
    return parts


class PrecompTable:
    """Fixed-base table: per track, the signed lookup of its shifted base."""

    __slots__ = ("curve", "t", "w", "signed")

    def __init__(self, curve: CurveParams, t: int, w: int,
                 signed: tuple[dict[int, AffinePoint], ...]):
        self.curve = curve
        self.t = t
        self.w = w
        self.signed = signed

    def stored_points(self) -> list[AffinePoint]:
        """Every stored point: bases in track order, then odd multiples."""
        pts = [lookup[1] for lookup in self.signed]
        for lookup in self.signed:
            pts += [lookup[d] for d in sorted(lookup) if d > 1]
        return pts

    @property
    def extra_points(self) -> int:
        """Stored points beyond the generator itself."""
        return len(self.stored_points()) - 1


def build_table(G: AffinePoint, t: int, w: int) -> PrecompTable:
    """Precompute the fixed-base table for (t, w).

    Bases are chained doublings of G, normalized together; odd multiples
    are chained additions, one inversion per track.  More tracks than the
    field has bits would only add bases that see zero digits, so t must be
    in [1, n].
    """
    curve = G.curve
    if not 1 <= t <= curve.field.n:
        raise ValueError(f"track count {t} outside [1, {curve.field.n}]")
    if w < 2 or w > MAX_RECODING_WIDTH:
        raise UnsupportedWidth(f"width {w} outside [2, {MAX_RECODING_WIDTH}]")
    chunk = -(-curve.field.n // t)
    shifted = [lift(G)]
    for i in range(1, t):
        R = shifted[-1]
        for _ in range(chunk):
            R = ec_dbl_jj(R)
        shifted.append(R)
    bases = to_affine_batch(shifted)
    return PrecompTable(curve, t, w, tuple(_signed_lookup(base, w) for base in bases))


def fixed_base_table(P: AffinePoint) -> PrecompTable:
    """The FIXED_BASE_SHAPE table for base P, 32 stored points, built on
    first use and kept on P's curve, one per base: each key beyond G costs
    about 12 KB for as long as its curve lives (11,952 bytes by tracemalloc
    on secp160r1)."""
    tables = P.curve._tables
    table = tables.get(P)
    if table is None:
        table = tables[P] = build_table(P, *FIXED_BASE_SHAPE)
    return table


def default_table(curve: CurveParams) -> PrecompTable:
    """The curve's shared generator table, fixed_base_table(curve.G)."""
    return fixed_base_table(curve.G)


def _scan(curve: CurveParams, rows: list[tuple[int, ...]],
          lookups: list[dict[int, AffinePoint]]) -> JacobianPoint:
    """Sum of each row's little-endian signed digits times its lookup's
    base: additions grouped by position, rows in order within one, zero
    digits and identity entries skipped.  The accumulator is three ints: an
    a = -3 doubling with Z and Y nonzero (dbl-2001-b) and a mixed addition
    of distinct x (madd-2007-bl) run inline, tallied once at the end, and
    every other step goes through ec_dbl_jj or ec_add_ajj."""
    adds = [()] * max(map(len, rows))
    for row, lookup in zip(rows, lookups):
        for i, d in compress(enumerate(row), row):
            pt = lookup[d]
            if not pt.infinity:
                adds[i] += (pt,)
    p = curve.field.p
    inline_dbl = curve.a_is_minus3
    X, Y, Z = 1, 1, 0
    n_dbl = n_add = 0
    for points in reversed(adds):
        if inline_dbl and Z and Y:
            n_dbl += 1
            yy = Y * Y % p
            s = (X * yy % p) << 2
            zz = Z * Z % p
            m = 3 * (X - zz) * (X + zz) % p
            X = (m * m - (s << 1)) % p
            Z = (Y * Z << 1) % p
            Y = (m * (s - X) - (yy * yy << 3)) % p
        else:
            Q = ec_dbl_jj(JacobianPoint(curve, X, Y, Z))
            X, Y, Z = Q.X, Q.Y, Q.Z
        for pt in points:
            if Z:
                zz = Z * Z % p
                h = pt.x * zz % p - X
                if h:
                    n_add += 1
                    hh = h * h % p
                    i = hh << 2
                    j = h * i % p
                    r = (pt.y * (Z * zz % p) % p - Y) << 1
                    v = X * i % p
                    X = (r * r - j - (v << 1)) % p
                    Y = (r * (v - X) - (Y * j << 1)) % p
                    Z = ((Z + h) * (Z + h) - zz - hh) % p
                    continue
            Q = ec_add_ajj(pt, JacobianPoint(curve, X, Y, Z))
            X, Y, Z = Q.X, Q.Y, Q.Z
    c = counters()
    c.ecdbl += n_dbl
    c.ecadd += n_add
    c.fe_mul += 8 * n_dbl + 11 * n_add
    return JacobianPoint(curve, X, Y, Z)


@lru_cache(maxsize=1)
def _track_rows(k: int, t: int, w: int, n_bits: int) -> tuple[tuple[int, ...], ...]:
    """k split into the t tracks of an n_bits table, bound-checked, and each
    track recoded at width w.

    The last result is kept until the next call, or until encrypt clears it:
    encrypt multiplies one k over two tables of the same shape (G's and the
    public key's), and its second multiplication reuses the first one's rows.
    """
    parts = split_scalar(k, t, n_bits)
    if k.bit_length() > t * -(-n_bits // t) + 1:
        raise TableMismatch(f"{k.bit_length()}-bit scalar exceeds table designed for {n_bits} bits")
    return tuple(wmof_recode(part, w) for part in parts)


def mul_interleave(k: int, table: PrecompTable, m: int = 0) -> JacobianPoint:
    """k*P + m*G over P's precomputed table: t recoded tracks, one doubling
    chain.  A nonzero m is one more row over the first track of the
    generator's table (Shamir's trick), sharing the chain, so a short m adds
    its nonzero digits and no doubling."""
    rows = list(_track_rows(k, table.t, table.w, table.curve.field.n))
    lookups = list(table.signed)
    if m:
        g_table = default_table(table.curve)
        rows.append(wmof_recode(m, g_table.w))
        lookups.append(g_table.signed[0])
    return _scan(table.curve, rows, lookups)


def mul_signed(k: int, P: AffinePoint, w: int) -> JacobianPoint:
    """k * P scanned over its width-w recoding; no stored precomputation.

    Width 2 needs nothing beyond P and its mirror; wider recodings build
    their few odd multiples on the fly (normalized for one inversion, which
    shows up in the counters like everything else).
    """
    return _scan(P.curve, [wmof_recode(k, w)], [_signed_lookup(P, w)])


# ---------------------------------------------------------------------------
# Table files: magic, curve name, n_bits (2 bytes), t (2 bytes), w (1 byte),
# then the base point in wire encoding.  Every stored point follows from the
# base, so the file holds none of them: import checks the header, decodes
# the base and builds its table.

def table_to_bytes(table: PrecompTable) -> bytes:
    name = table.curve.name.encode()
    return (_TABLE_MAGIC + bytes([len(name)]) + name
            + table.curve.field.n.to_bytes(2, "big") + table.t.to_bytes(2, "big")
            + bytes([table.w]) + point_to_bytes(table.signed[0][1]))


def table_from_bytes(data: bytes, curve: CurveParams) -> PrecompTable:
    if data[:4] != _TABLE_MAGIC:
        raise BadEncoding("not a precomputation table")
    try:
        pos = 5 + data[4]
        n_bits = int.from_bytes(data[pos:pos + 2], "big")
        t = int.from_bytes(data[pos + 2:pos + 4], "big")
        w = data[pos + 4]
    except IndexError:
        raise BadEncoding("truncated table header") from None
    name = data[5:pos]
    if name != curve.name.encode():
        raise TableMismatch(f"table built for curve {name.decode(errors='replace')!r}, "
                            f"not {curve.name!r}")
    if n_bits != curve.field.n:
        raise TableMismatch(f"table designed for {n_bits} bits, curve has {curve.field.n}")
    if not 1 <= t <= n_bits or w < 2 or w > MAX_RECODING_WIDTH:
        raise BadEncoding("table header has invalid (t, w)")
    base, pos = decode_point(data, pos + 5, curve)
    if base.is_infinity:
        raise BadEncoding("table base may not be the identity")
    if pos != len(data):
        raise BadEncoding("trailing bytes after table")
    return build_table(to_affine(base), t, w)
