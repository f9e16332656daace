"""Scalar multiplication: the binary reference and one table-driven scan.

mul_binary, left-to-right double-and-add, is the independent reference:
keygen, message mapping and curve validation run on it, and the tests
compare every other multiplier and every table against it.  mul_signed and
mul_interleave only recode their scalars into nonzero signed terms and run
one scan over them in two halves: a deal places each term on its track and
offset and reads its entry from each table's lookups of odd multiples into
that table's chain of buckets, and each chain then runs one doubling chain
and one addition per entry, its hot formulas copied from the curve module
to run inline on local integers.  A table's multiples are affine (x, y)
ints, normalized once at build time, and take a mixed addition; mul_signed
builds its few on every call and keeps them Jacobian with their Z**2 and
Z**3 cached, so it never inverts, and each takes add-2007-bl at 14
multiplications.

Signed recodings cut the number of additions: a width-w recoding has only
odd digits no larger than 2**(w-1) - 1, at most one nonzero digit in any w
consecutive positions, and an average nonzero fraction of 1/(1+w).
Negative digits cost nothing extra: each odd multiple is held once, and
the scan mirrors its y for a negative digit.  The recoding is kept as its
nonzero terms, (position, digit) pairs, so neither the recoder nor the
scan visits a zero digit.

For a fixed base the interleaved method also cuts doublings: the scalar is
recoded once and its terms are dealt into t tracks of n/t positions, each
over its own shifted base 2**((i-1)*n/t) * G, so the chain is
n/t steps long (Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 3.42).
The shifted bases and the odd multiples needed by widths above 2 are
precomputed, the bases and their doubles normalized together and then the
multiples of every track; beyond the generator itself that is (t-1) +
t*(2**(w-2) - 1) stored points, held per track at index |d| >> 1 of digit
d.  Any fixed point can be the base: every encryption runs k*G and k*Y
over the FIXED_BASE_SHAPE tables that fixed_base_table caches, in one
mul_interleave call over both tables that recodes and deals k once and
reads each term's entry from both (after Moeller, "Algorithms for
multi-exponentiation", SAC 2001).  mul_interleave folds m*G into the last
chain (Shamir's trick): m's terms are dealt over the generator's tracks as
k's are over P's, so m shares k's chain of about n/t doublings however
wide it is.  Nothing is kept between calls, so k lives only inside the one
call.
"""

from __future__ import annotations

from .counters import counters
from .curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    decode_point,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    lift,
    point_to_bytes,
    to_affine,
    to_affine_batch,
)
from .errors import BadEncoding, TableMismatch, UnsupportedWidth

MAX_RECODING_WIDTH = 6

# (t, w) of the tables fixed_base_table builds, chosen by a flash budget of
# 20 KB: 16 tracks of 10 bits on secp160r1, each holding its shifted base
# and that base's 3, 5, ..., 31 multiples.  That is 256 affine points of 40
# bytes per base, 10,240 bytes, or 20,480 bytes for G and the public key
# together.  Both tables are read-only after keygen, so a mote writes them
# to flash once, where its 4 KB of SRAM could not hold them, and only reads
# them after: 16% of a MicaZ's 128 KB, the rest left to the program.
# Tracks set the chain, 10 doublings against 20 at (8, w); the width sets
# the additions, one per term of a recoding of density 1/(1+w).  At equal
# storage, width buys more than tracks: over 600 random (k, m < 256) an
# encryption costs 654.8 multiplications at (16, 6) and 658.3 at (32, 5),
# both 20 KB, and 737.5 at (16, 5), half the storage.
FIXED_BASE_SHAPE = (16, 6)

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


def wmof_recode(k: int, w: int) -> tuple[tuple[int, int], ...]:
    """Width-w signed recoding of k as its nonzero terms: (position, digit)
    pairs in increasing position, digit d at position i weighing d * 2**i.

    Every digit is odd with |d| <= 2**(w-1) - 1, any two positions are at
    least w apart, and the terms sum to k; k = 0 has none.  A zero run is
    skipped in one step, and a digit clears the w - 1 positions above it,
    so k shifts past them with it: no zero digit is ever visited.
    """
    if w < 2 or w > MAX_RECODING_WIDTH:
        raise UnsupportedWidth(f"width {w} outside [2, {MAX_RECODING_WIDTH}]")
    if k < 0:
        raise ValueError("scalar must be non-negative")
    half = 1 << (w - 1)
    full = half << 1
    terms = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & (full - 1)
        if d > half:
            d -= full
        terms.append((pos, d))
        k = (k - d) >> w
        pos += w
    return tuple(terms)


def _odd_chain(P: AffinePoint, dbl: JacobianPoint, w: int) -> list[JacobianPoint]:
    """3P, 5P, ..., (2**(w-1) - 1)P for w > 2, given dbl = 2P, left Jacobian
    for no inversion: 3P = P + 2P and each next multiple 2P further, by
    ec_add_jjj, whose formula follows the operands' Z.  With 2P Jacobian, as
    mul_signed doubles it, 3P is a mixed addition and the rest add-2007-bl;
    with 2P at Z = 1, as a table build normalizes it, 3P is mmadd-2007-bl
    and the rest mixed additions."""
    chain = [ec_add_jjj(lift(P), dbl)]
    for _ in range(5, 1 << (w - 1), 2):
        chain.append(ec_add_jjj(dbl, chain[-1]))
    return chain


def _signed_lookup(P: AffinePoint, w: int) -> tuple:
    """P's width-w lookup as mul_signed scans it: d*P at index d >> 1 for
    odd d up to 2**(w-1) - 1, None for the identity.  P is its affine
    (x, y); the multiples above it stay Jacobian, (X, Y, Z, Z**2, Z**3)
    with the Z powers cached at 2 multiplications, so no inversion is spent
    and each scan addition of one costs 14 multiplications."""
    p = P.curve.field.p
    lookup = [None if P.infinity else (P.x, P.y)]
    chain = _odd_chain(P, ec_dbl_jj(lift(P)), w) if w > 2 else []
    counters().fe_mul += 2 * len(chain)
    for Q in chain:
        zz = Q.Z * Q.Z % p
        lookup.append((Q.X, Q.Y, Q.Z, zz, zz * Q.Z % p) if Q.Z else None)
    return tuple(lookup)


class PrecompTable:
    """Fixed-base table: per track, d*B for its shifted base B and odd d up
    to 2**(w-1) - 1 at index d >> 1, as (x, y) ints or None for the identity."""

    __slots__ = ("curve", "t", "w", "signed")

    def __init__(self, curve: CurveParams, t: int, w: int,
                 signed: tuple[tuple[tuple[int, int] | None, ...], ...]):
        self.curve = curve
        self.t = t
        self.w = w
        self.signed = signed

    @property
    def extra_points(self) -> int:
        """Stored points beyond the generator itself."""
        return sum(map(len, self.signed)) - 1


def build_table(G: AffinePoint, t: int, w: int) -> PrecompTable:
    """Precompute the fixed-base table for (t, w).

    Bases are chained doublings of G, and above width 2 each track's 2B is
    the first doubling past its base, one more for the last track; bases
    and doubles are normalized together.  Then every track's odd multiples
    are chained from 2B at Z = 1, by mixed additions, and normalized
    together too: two inversions in all.  One track above width 2 spends
    one on 2B alone, its base G being at Z = 1; chaining from a Jacobian 2B
    would save it for 1, 11, 31 and 71 more multiplications at w = 3 to 6,
    an inversion costing 35 to 45 in time (CPython 3.11.7), on a shape
    encryption never builds, so one code path serves every shape.  More
    tracks than the field has bits would only add bases that see zero
    digits, so t must be in [1, n].
    """
    curve = G.curve
    if not 1 <= t <= curve.field.n:
        raise ValueError(f"track count {t} outside [1, {curve.field.n}]")
    if w < 2 or w > MAX_RECODING_WIDTH:
        raise UnsupportedWidth(f"width {w} outside [2, {MAX_RECODING_WIDTH}]")
    chunk = -(-curve.field.n // t)
    per = (1 << (w - 2)) - 1
    # G doubled up to the last track's base and, above width 2, once past
    # it: track i's base sits at position i*chunk and its 2B at i*chunk + 1,
    # the next track's base when chunk is 1, so positions are normalized once
    chain = [lift(G)]
    for _ in range((t - 1) * chunk + (w > 2)):
        chain.append(ec_dbl_jj(chain[-1]))
    keep = sorted({i * chunk + d for i in range(t) for d in range(1 + (w > 2))})
    affine = dict(zip(keep, to_affine_batch([chain[i] for i in keep])))
    bases = [affine[i * chunk] for i in range(t)]
    odd = []
    if per:
        odd = to_affine_batch([Q for i, base in enumerate(bases)
                               for Q in _odd_chain(base, lift(affine[i * chunk + 1]), w)])
    signed = tuple(tuple(None if pt.infinity else (pt.x, pt.y)
                         for pt in [base, *odd[i * per:(i + 1) * per]])
                   for i, base in enumerate(bases))
    return PrecompTable(curve, t, w, signed)


def fixed_base_table(P: AffinePoint) -> PrecompTable:
    """The FIXED_BASE_SHAPE table for base P, 256 stored points, built on
    first use and kept on P's curve, one per base: the curve keeps the
    table's tracks, plain ints under P's (x, y), and each call wraps them
    in a new PrecompTable.  Each key beyond G costs about 42 KB for as long
    as its curve lives: 41,824 bytes by tracemalloc on secp160r1, the
    tracks' 41,768 and the key's 56.  A curve narrower than the shape's
    track count gets one track per field bit."""
    curve = P.curve
    signed = curve._tables.get((P.x, P.y))
    if signed is None:
        t, w = FIXED_BASE_SHAPE
        signed = curve._tables[P.x, P.y] = build_table(P, min(t, curve.field.n), w).signed
    return PrecompTable(curve, len(signed), FIXED_BASE_SHAPE[1], signed)


def default_table(curve: CurveParams) -> PrecompTable:
    """The curve's shared generator table, fixed_base_table(curve.G), found
    by the generator's stored coordinates: once built, no point is made."""
    signed = curve._tables.get(curve._g)
    if signed is None:
        return fixed_base_table(curve.G)
    return PrecompTable(curve, len(signed), FIXED_BASE_SHAPE[1], signed)


def _reach(terms, tracks: int, chunk: int) -> int:
    """The chain length that a scalar's terms need over tracks of chunk
    positions: one past the highest offset they reach, the top term's in
    the last track and below both chunk and the top position in the others.
    So no zero digit is walked, and an empty top offset only doubles the
    identity, which is free.  No terms need no chain."""
    if not terms:
        return 0
    top = terms[-1][0]
    return max(top - (tracks - 1) * chunk + 1, min(top, chunk - 1) + 1)


def _deal(p: int, terms, lookups, chunk: int, chains) -> None:
    """Deal a scalar's (position, digit) terms into the buckets of one chain
    per table, the tables of one shape: lookups holds each table's tracks,
    chains each table's (adds, jadds), lists of entry tuples by offset.  A
    term at position pos goes to track r = min(pos // chunk, t - 1), at
    offset pos - r*chunk, and weighs d * 2**offset times that track's base.
    The last track takes every term from (t-1)*chunk up, so a carry digit,
    or a scalar past the design width, stays exact; with one track, every
    term sits at its own position, whatever the chunk.  Each term is placed
    once, in one loop that reads every table's entry there.  A lookup holds
    d*P at index |d| >> 1: an affine (x, y), for mul_signed's odd multiples
    a Jacobian (X, Y, Z, Z**2, Z**3), or None for the identity, which is
    skipped.  A negative digit takes its entry with y mirrored, as p - y:
    CurveParams admits only curves of odd prime order, so no entry has
    y = 0 and p - y stays in [1, p - 1].  Affine entries go to adds and
    Jacobian ones to jadds, each in the order dealt."""
    last = len(lookups[0]) - 1
    pairs = [(tracks, *chain) for tracks, chain in zip(lookups, chains)]
    for pos, d in terms:
        r = pos // chunk
        if r > last:
            r = last
        i = pos - r * chunk
        e = (d if d > 0 else -d) >> 1
        for tracks, adds, jadds in pairs:
            pt = tracks[r][e]
            if pt is None:
                continue
            if len(pt) == 2:
                adds[i] += ((pt[0], p - pt[1]) if d < 0 else pt,)
            else:
                jadds[i] += ((pt[0], p - pt[1], *pt[2:]) if d < 0 else pt,)


def _chain(curve: CurveParams, adds: list, jadds: list) -> JacobianPoint:
    """The sum of one chain's dealt buckets: from the highest offset down,
    one doubling, then the offset's affine entries, then its Jacobian ones,
    each in the order dealt; an offset with no Jacobian entry, every offset
    of a fixed-base chain, skips their loop.  The accumulator is three
    ints: an a = -3 doubling with Z and Y nonzero (dbl-2001-b), a mixed
    addition of distinct x (madd-2007-bl) and an add-2007-bl of distinct x
    over a Jacobian entry's cached Z powers (14 multiplications, against
    16) run inline, tallied once at the end, and every other step goes
    through ec_dbl_jj, ec_add_ajj or ec_add_jjj.  An accumulator at Z = 1
    meeting a Jacobian entry also takes ec_add_jjj, whose mixed addition
    gives it other coordinates than the general formula would."""
    p = curve.field.p
    inline_dbl = curve.a_is_minus3
    X, Y, Z = 1, 1, 0
    n_dbl = n_add = n_jadd = 0
    for points, jpoints in zip(reversed(adds), reversed(jadds)):
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
        for x2, y2 in points:
            if Z:
                zz = Z * Z % p
                h = x2 * zz % p - X
                if h:
                    n_add += 1
                    hh = h * h % p
                    i = hh << 2
                    j = h * i % p
                    r = (y2 * (Z * zz % p) % p - Y) << 1
                    v = X * i % p
                    X = (r * r - j - (v << 1)) % p
                    Y = (r * (v - X) - (Y * j << 1)) % p
                    Z = ((Z + h) * (Z + h) - zz - hh) % p
                    continue
            Q = ec_add_ajj(AffinePoint(curve, x2, y2), JacobianPoint(curve, X, Y, Z))
            X, Y, Z = Q.X, Q.Y, Q.Z
        if not jpoints:
            continue
        for X2, Y2, Z2, zz2, zzz2 in jpoints:
            if Z > 1:
                zz = Z * Z % p
                u1 = X * zz2 % p
                u2 = X2 * zz % p
                if u1 != u2:
                    n_jadd += 1
                    h = u2 - u1
                    i = (h * h << 2) % p
                    j = h * i % p
                    s1 = Y * zzz2 % p
                    r = (Y2 * (Z * zz % p) % p - s1) << 1
                    v = u1 * i % p
                    X = (r * r - j - (v << 1)) % p
                    Y = (r * (v - X) - (s1 * j << 1)) % p
                    Z = ((Z + Z2) * (Z + Z2) - zz - zz2) * h % p
                    continue
            Q = ec_add_jjj(JacobianPoint(curve, X, Y, Z), JacobianPoint(curve, X2, Y2, Z2))
            X, Y, Z = Q.X, Q.Y, Q.Z
    c = counters()
    c.ecdbl += n_dbl
    c.ecadd += n_add + n_jadd
    c.fe_mul += 8 * n_dbl + 11 * n_add + 14 * n_jadd
    return JacobianPoint(curve, X, Y, Z)


def mul_interleave(k: int, table: PrecompTable | tuple[PrecompTable, ...],
                   m: int = 0) -> JacobianPoint | tuple[JacobianPoint, ...]:
    """k*P + m*G over P's precomputed table: k, bound-checked, recoded once
    across its full width and its terms dealt into the table's t tracks of
    ceil(n/t) positions, one doubling chain.  Tracks recoded apart would
    each restart the recoding at their edge, often with a carry digit: 62.4
    additions per encryption on secp160r1 at FIXED_BASE_SHAPE, against 48.4
    for the one recoding dealt (means over 1,200 random k and 24-bit m).  A
    nonzero m is recoded too and dealt over the generator's table the same
    way (Shamir's trick), sharing the chain: m adds its terms, and a
    doubling only where its highest offset passes k's.

    table may be a tuple of tables of one curve and shape, for several
    products of the same k, as encrypt's (k*G, k*Y + m*G) over (G's table,
    Y's table): k is then checked, recoded and dealt once, each term read
    from every table into that table's own chain, m's terms join the last
    chain only, and a tuple comes back, one point per table.  Tables of
    other curves or shapes raise TableMismatch before any point work."""
    tables = table if isinstance(table, tuple) else (table,)
    curve, t, w = tables[0].curve, tables[0].t, tables[0].w
    lookups = []
    for each in tables:
        if each.curve is not curve or each.t != t or each.w != w:
            raise TableMismatch("tables differ in curve or shape")
        lookups.append(each.signed)
    n_bits = curve.field.n
    chunk = -(-n_bits // t)
    if k.bit_length() > t * chunk + 1:
        raise TableMismatch(f"{k.bit_length()}-bit scalar exceeds table designed for {n_bits} bits")
    terms = wmof_recode(k, w)
    sizes = [_reach(terms, t, chunk)] * len(tables)
    if m:
        g_table = default_table(curve)
        g_chunk = -(-n_bits // g_table.t)
        m_terms = wmof_recode(m, g_table.w)
        sizes[-1] = max(sizes[-1], _reach(m_terms, g_table.t, g_chunk))
    chains = [([()] * size, [()] * size) for size in sizes]
    p = curve.field.p
    _deal(p, terms, lookups, chunk, chains)
    if m:
        _deal(p, m_terms, (g_table.signed,), g_chunk, chains[-1:])
    if isinstance(table, tuple):
        return tuple([_chain(curve, adds, jadds) for adds, jadds in chains])
    return _chain(curve, *chains[0])


def mul_signed(k: int, P: AffinePoint, w: int) -> JacobianPoint:
    """k * P scanned over its width-w recoding; no stored precomputation.

    Width 2 needs nothing beyond P; wider recodings build
    their few odd multiples on the fly and scan them in Jacobian form, so
    no width spends an inversion.
    """
    terms = wmof_recode(k, w)
    size = _reach(terms, 1, 1)
    chain = [()] * size, [()] * size
    _deal(P.curve.field.p, terms, ((_signed_lookup(P, w),),), 1, (chain,))
    return _chain(P.curve, *chain)


# ---------------------------------------------------------------------------
# Table files: magic, curve name, n_bits (2 bytes), t (2 bytes), w (1 byte),
# then the base point in wire encoding.  Every stored point follows from the
# base, so the file holds none of them: import checks the header, decodes
# the base and builds its table.

def table_to_bytes(table: PrecompTable) -> bytes:
    curve = table.curve
    name = curve.name.encode()
    base = table.signed[0][0]
    return (_TABLE_MAGIC + bytes([len(name)]) + name
            + curve.field.n.to_bytes(2, "big") + table.t.to_bytes(2, "big") + bytes([table.w])
            + point_to_bytes(AffinePoint(curve, *base) if base else AffinePoint.identity(curve)))


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
