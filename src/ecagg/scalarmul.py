"""Scalar multiplication: the binary reference and one table-driven scan.

mul_binary, left-to-right double-and-add, is the independent reference that
tests and table validation compare against.  mul_signed and mul_interleave
only build rows of signed digits, each over its base's signed odd
multiples, and return one scan over them: a single shared doubling chain
and one mixed addition per nonzero digit.

Signed recodings cut the number of additions: a width-w recoding has only
odd digits no larger than 2**(w-1) - 1, at most one nonzero digit in any w
consecutive positions, and an average nonzero fraction of 1/(1+w).
Negative digits cost nothing extra: negating a point mirrors its y.

For a fixed base the interleaved method also cuts doublings: the scalar is
split into t tracks of n/t bits, one row per track over its own shifted
base 2**((i-1)*n/t) * G, so the chain is n/t steps long.  The shifted bases
and the odd multiples needed by widths above 2 are precomputed; beyond the
generator itself that is (t-1) + t*(2**(w-2) - 1) stored points.  Any fixed
point can be the base: encryption runs k*G and k*Y over (4, 4) tables from
fixed_base_table, m*G folded into the k*Y chain as one more row (Shamir's
trick).
"""

from __future__ import annotations

from itertools import compress

from .curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    decode_point,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    ec_eq,
    ec_neg,
    lift,
    on_curve,
    point_to_bytes,
    to_affine_batch,
)
from .errors import BadEncoding, TableMismatch, UnsupportedWidth

MAX_RECODING_WIDTH = 4

_TABLE_MAGIC = b"EPT1"


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


def _odd_multiples(P: AffinePoint, w: int) -> dict[int, AffinePoint]:
    """{1: P, 3: 3P, ..., 2**(w-1) - 1: ...}: chained additions of a
    Jacobian 2P, normalized together for one inversion."""
    multiples = {1: P}
    if w > 2:
        dbl = ec_dbl_jj(lift(P))
        chain = [ec_add_ajj(P, dbl)]
        for _ in range(5, 1 << (w - 1), 2):
            chain.append(ec_add_jjj(dbl, chain[-1]))
        multiples.update(zip(range(3, 1 << (w - 1), 2), to_affine_batch(chain)))
    return multiples


def _signed(multiples: dict[int, AffinePoint]) -> dict[int, AffinePoint]:
    """The odd multiples keyed by signed digit: d -> d*P and -d -> -(d*P)."""
    return {**multiples, **{-d: ec_neg(pt) for d, pt in multiples.items()}}


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
    """Fixed-base table: shifted bases per track plus their odd multiples."""

    __slots__ = ("curve", "t", "w", "chunk", "multiples", "signed")

    def __init__(self, curve: CurveParams, t: int, w: int,
                 multiples: tuple[dict[int, AffinePoint], ...]):
        self.curve = curve
        self.t = t
        self.w = w
        self.chunk = -(-curve.field.n // t)
        self.multiples = multiples
        self.signed = tuple(_signed(m) for m in multiples)

    def stored_points(self) -> list[AffinePoint]:
        """Every stored point: bases in track order, then odd multiples."""
        pts = [self.multiples[i][1] for i in range(self.t)]
        for i in range(self.t):
            for d in sorted(self.multiples[i]):
                if d != 1:
                    pts.append(self.multiples[i][d])
        return pts

    @property
    def extra_points(self) -> int:
        """Stored points beyond the generator itself."""
        return len(self.stored_points()) - 1


def _check_multiples(multiples: tuple[dict[int, AffinePoint], ...], G: AffinePoint,
                     chunk: int) -> None:
    """Raise TableMismatch unless every stored point of track i, digit d is
    on the curve and equals (d << i*chunk) * G by binary multiplication."""
    for i, track in enumerate(multiples):
        shift = i * chunk
        for d, pt in track.items():
            if not on_curve(pt):
                raise TableMismatch(f"track {i} multiple {d} left the curve")
            if not ec_eq(lift(pt), mul_binary(d << shift, G)):
                raise TableMismatch(f"track {i} multiple {d} disagrees with binary multiplication")


def build_table(G: AffinePoint, t: int, w: int) -> PrecompTable:
    """Precompute and validate the fixed-base table for (t, w).

    Bases are chained doublings of G, normalized together; odd multiples
    are chained additions, one inversion per track.  Every stored point is
    checked against an independent binary multiplication of its defining
    scalar before the table is returned.
    """
    if t < 1:
        raise ValueError("track count must be at least 1")
    if w < 2 or w > MAX_RECODING_WIDTH:
        raise UnsupportedWidth(f"width {w} outside [2, {MAX_RECODING_WIDTH}]")
    curve = G.curve
    chunk = -(-curve.field.n // t)
    shifted = [lift(G)]
    for i in range(1, t):
        R = shifted[-1]
        for _ in range(chunk):
            R = ec_dbl_jj(R)
        shifted.append(R)
    bases = to_affine_batch(shifted)
    multiples = tuple(_odd_multiples(base, w) for base in bases)
    _check_multiples(multiples, G, chunk)
    return PrecompTable(curve, t, w, multiples)


def fixed_base_table(P: AffinePoint) -> PrecompTable:
    """The validated (4, 4) table for base P, 16 stored points, built on
    first use.

    A curve caches two such tables: its generator's, and that of the most
    recently used other base (in practice the public key encryption runs
    under).  A new other base drops the previous one's table before its own
    is built, so the two never coexist.
    """
    tables = P.curve._tables
    table = tables.get(P)
    if table is None:
        if P != P.curve.G:
            for base in [b for b in tables if b != P.curve.G]:
                del tables[base]
        table = tables[P] = build_table(P, 4, 4)
    return table


def default_table(curve: CurveParams) -> PrecompTable:
    """The curve's shared generator table, fixed_base_table(curve.G)."""
    return fixed_base_table(curve.G)


def _scan(curve: CurveParams, rows: list[tuple[int, ...]],
          lookups: list[dict[int, AffinePoint]]) -> JacobianPoint:
    """Sum of each row's little-endian signed digits times its lookup's
    base: additions grouped by position, rows in order within one, zero
    digits skipped at C speed by compress; the identity doubles for free."""
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


def mul_interleave(k: int, table: PrecompTable, m: int = 0,
                   m_table: PrecompTable | None = None) -> JacobianPoint:
    """k * P over P's precomputed table: t recoded tracks, one doubling chain.

    Given m_table, the result is k*P + m*Q with Q the first base of m_table
    (Shamir's trick): m's recoding is one more row over track 0 of m_table,
    sharing the chain, so a short m adds its nonzero digits and no
    doubling.
    """
    if m and m_table is None:
        raise ValueError("a second scalar needs its table")
    parts = split_scalar(k, table.t, table.curve.field.n)
    if k.bit_length() > table.t * table.chunk + 1:
        raise TableMismatch(
            f"{k.bit_length()}-bit scalar exceeds table designed for {table.curve.field.n} bits")
    rows = [wmof_recode(part, table.w) for part in parts]
    lookups = list(table.signed)
    if m_table is not None:
        rows.append(wmof_recode(m, m_table.w))
        lookups.append(m_table.signed[0])
    return _scan(table.curve, rows, lookups)


def mul_signed(k: int, P: AffinePoint, w: int) -> JacobianPoint:
    """k * P scanned over its width-w recoding; no stored precomputation.

    Width 2 needs nothing beyond P and its mirror; wider recodings build
    their few odd multiples on the fly (normalized for one inversion, which
    shows up in the counters like everything else).
    """
    return _scan(P.curve, [wmof_recode(k, w)], [_signed(_odd_multiples(P, w))])


# ---------------------------------------------------------------------------
# Table files: magic, curve name, (t, w, n_bits), point count, then the
# stored points in wire encoding.  The format stores no base point: import
# re-checks every point against binary multiples of the first stored base.

def table_to_bytes(table: PrecompTable) -> bytes:
    name = table.curve.name.encode()
    if len(name) > 255:
        raise ValueError("curve name too long")
    pts = table.stored_points()
    head = (_TABLE_MAGIC + bytes([len(name)]) + name
            + bytes([table.t, table.w])
            + table.curve.field.n.to_bytes(2, "big")
            + len(pts).to_bytes(2, "big"))
    return head + b"".join(point_to_bytes(p) for p in pts)


def table_from_bytes(data: bytes, curve: CurveParams) -> PrecompTable:
    if len(data) < 4 or data[:4] != _TABLE_MAGIC:
        raise BadEncoding("not a precomputation table")
    pos = 4
    try:
        nlen = data[pos]
        name = data[pos + 1:pos + 1 + nlen].decode()
        pos += 1 + nlen
        t, w = data[pos], data[pos + 1]
        n_bits = int.from_bytes(data[pos + 2:pos + 4], "big")
        count = int.from_bytes(data[pos + 4:pos + 6], "big")
        pos += 6
    except (IndexError, UnicodeDecodeError):
        raise BadEncoding("truncated table header") from None
    if name != curve.name:
        raise TableMismatch(f"table built for curve {name!r}, not {curve.name!r}")
    if n_bits != curve.field.n:
        raise TableMismatch(f"table designed for {n_bits} bits, curve has {curve.field.n}")
    if t < 1 or w < 2 or w > MAX_RECODING_WIDTH:
        raise BadEncoding("table header has invalid (t, w)")
    expected = t + t * ((1 << (w - 2)) - 1)
    if count != expected:
        raise BadEncoding(f"table should hold {expected} points, header says {count}")
    points = []
    for _ in range(count):
        P, pos = decode_point(data, pos, curve)
        if P.infinity:
            raise BadEncoding("table may not contain the identity")
        points.append(P)
    if pos != len(data):
        raise BadEncoding("trailing bytes after table")
    multiples = tuple({1: points[i]} for i in range(t))
    idx = t
    for i in range(t):
        for d in range(3, 1 << (w - 1), 2):
            multiples[i][d] = points[idx]
            idx += 1
    _check_multiples(multiples, points[0], -(-n_bits // t))
    return PrecompTable(curve, t, w, multiples)
