"""Recoding invariants and multiplier equivalence."""

import gc
import tracemalloc
from collections import Counter

import pytest

from conftest import (
    SMALL7,
    TINY,
    TINY_A2,
    as_tuple,
    check_track_cut,
    cut_edges,
    jac_tuple,
    make_tiny,
    o_add,
    o_mul,
    o_of,
)
from ecagg import scalarmul
from ecagg.counters import tally
from ecagg.curve import (
    AffinePoint,
    builtin_curve,
    curve_from_config,
    ec_add_ajj,
    ec_add_jjj,
    ec_eq,
    lift,
    on_curve,
    point_to_bytes,
    to_affine,
)
from ecagg.errors import BadEncoding, OffCurvePoint, TableMismatch, UnsupportedWidth
from ecagg.scalarmul import (
    FIXED_BASE_SHAPE,
    _signed_lookup,
    build_table,
    default_table,
    fixed_base_table,
    mul_binary,
    mul_interleave,
    mul_signed,
    table_from_bytes,
    table_to_bytes,
    wmof_recode,
)

N = 160


# --- binary baseline ------------------------------------------------------------

def test_binary_zero(curve):
    assert mul_binary(0, curve.G).is_infinity


def test_binary_one(curve):
    assert to_affine(mul_binary(1, curve.G)) == curve.G


def test_binary_five_is_five_additions(curve):
    p, a = o_of(curve)
    g = as_tuple(curve.G)
    acc = None
    for _ in range(5):
        acc = o_add(acc, g, p, a)
    assert jac_tuple(mul_binary(5, curve.G)) == acc


def test_binary_small_sweep_tiny_curve(tiny_curve):
    p, a = o_of(tiny_curve)
    g = as_tuple(tiny_curve.G)
    acc = None
    for k in range(0, 300):
        assert jac_tuple(mul_binary(k, tiny_curve.G)) == acc
        acc = o_add(acc, g, p, a)


def test_binary_rejects_negative(curve):
    with pytest.raises(ValueError):
        mul_binary(-1, curve.G)


def test_binary_counts_doubling(curve):
    with tally() as ops:
        mul_binary(2, curve.G)
    assert ops.ecdbl >= 1


# --- signed recodings -------------------------------------------------------------

def dense_digits(k, w):
    """The width-w recoding digit by digit, zeros included (Hankerson-
    Menezes-Vanstone, Guide to ECC, Alg. 3.35): the reference the terms are
    the nonzero entries of."""
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k % (1 << w)
            if d >= 1 << (w - 1):
                d -= 1 << w
            k -= d
        digits.append(d)
        k >>= 1
    return digits


WIDTHS = range(2, scalarmul.MAX_RECODING_WIDTH + 1)


def test_wmof_zero_and_one():
    assert wmof_recode(0, 2) == ()
    assert wmof_recode(1, 2) == ((0, 1),)
    assert wmof_recode(1 << 100, 5) == ((100, 1),)
    with pytest.raises(ValueError):
        wmof_recode(-1, 2)


def test_wmof_width_two_digit_set(rng):
    for _ in range(200):
        assert all(d in (-1, 1) for _, d in wmof_recode(rng.getrandbits(N), 2))


def test_wmof_invariants(rng):
    # the terms reconstruct k, every digit is odd with |d| <= 2**(w-1) - 1,
    # positions strictly increase, at least w apart, and the terms are
    # exactly the nonzero digits of the digit-by-digit recoding; k with long
    # zero runs, at the bottom and inside, as well as random ones
    for w in WIDTHS:
        bound = (1 << (w - 1)) - 1
        ks = [rng.getrandbits(N) for _ in range(700)]
        ks += [rng.getrandbits(40) << s | 1 << (s + 100) for s in (0, 1, 7, 19)]
        for k in ks:
            terms = wmof_recode(k, w)
            assert sum(d << i for i, d in terms) == k
            for _, d in terms:
                assert d % 2 != 0
                assert abs(d) <= bound
            positions = [i for i, _ in terms]
            assert positions[0] >= 0
            for a, b in zip(positions, positions[1:]):
                assert b - a >= w
            assert list(terms) == [(i, d) for i, d in enumerate(dense_digits(k, w)) if d]


def test_wmof_rejects_bad_width():
    with pytest.raises(UnsupportedWidth):
        wmof_recode(5, 1)
    with pytest.raises(UnsupportedWidth):
        wmof_recode(5, scalarmul.MAX_RECODING_WIDTH + 1)


def test_wmof_density_quick(rng):
    total = 0
    samples = 2000
    for _ in range(samples):
        total += len(wmof_recode(rng.getrandbits(N), 2))
    assert abs(total / samples / N - 1 / 3) < 0.015


# --- the cut of k's recoding into tracks ------------------------------------------------

CUT_SHAPES = [(t, w) for t in (1, 2, 3, 4, 5) for w in WIDTHS]
CUT_SHAPES += [(8, 4), (16, 5), (16, 6), (N, 4), (N, 5), (N, 6)]


def test_split_chunk_widths():
    # 160 padded to a multiple of t: chunks 160, 80, 54, 40, 32
    for t, chunk in ((1, 160), (2, 80), (3, 54), (4, 40), (5, 32)):
        assert -(-N // t) == chunk


@pytest.mark.parametrize("t, w", CUT_SHAPES)
def test_cut_rows_sum_to_k(curve, rng, t, w):
    # k recoded once and its terms dealt into t tracks of chunk positions,
    # the last keeping the rest: a term at offset j of track i weighs
    # 2**(chunk*i + j), so the product is k*G exactly, at the track edges,
    # at n - 1, at the widest k the bound check admits, whose carry digit
    # past t*chunk the last track holds, and at random 160-bit k.  Each
    # term is one addition, the top one onto the identity, free, and the
    # chain doubles once per offset below the highest term's, each term's
    # track being the last that starts at or below its position
    table = build_table(curve.G, t, w)
    chunk = -(-N // t)
    widest = (1 << (t * chunk + 1)) - 1
    for k in [*(rng.getrandbits(N) for _ in range(10)), *cut_edges(t, N, curve.order_n)]:
        terms = wmof_recode(k, w)
        offsets = [pos - max(i for i in range(t) if i * chunk <= pos) * chunk for pos, _ in terms]
        with tally() as ops:
            Q = mul_interleave(k, table)
        assert ec_eq(Q, mul_binary(k, curve.G)), (t, w, k)
        assert ops.ecadd == max(len(terms) - 1, 0), (t, w, k)
        assert ops.ecdbl == max(offsets, default=0), (t, w, k)
    # the last, all ones of t*chunk + 1 bits: -1 at the bottom, then the
    # carry, +1 at position t*chunk + 1, offset chunk + 1 of the last track
    assert k == widest and max(offsets) == chunk + 1
    with pytest.raises(TableMismatch):
        mul_interleave(1 << (t * chunk + 1), table)


@pytest.mark.parametrize("t", [1, 3, 13])
def test_interleave_cut_matches_oracle_on_tiny_curves(t, tiny_curve, tiny_curve_a2):
    # one track (chunk 13), three (chunk 5, where a floored chunk of 4
    # would misplace every row past the first) and thirteen (chunk 1), at
    # every width: k from 0 up, across the group order, around each track
    # boundary and up to the widest k the bound check admits
    chunk = -(-13 // t)
    top = 1 << (t * chunk + 1)
    for c in (tiny_curve, tiny_curve_a2):
        ks = [*cut_edges(t, 13, c.order_n), *range(256),
              *range(c.order_n - 128, c.order_n + 128), *range(top - 256, top)]
        ks += [(1 << (i * chunk)) + d for i in range(1, t) for d in range(-2, 3)]
        for w in WIDTHS:
            check_track_cut(c, t, w, ks)


# --- precomputation table --------------------------------------------------------------

def test_table_extra_point_counts(curve):
    for t, w, expected in ((2, 2, 1), (3, 2, 2), (2, 3, 3), (1, 2, 0), (3, 4, 11)):
        table = build_table(curve.G, t, w)
        assert table.extra_points == expected
        assert table.extra_points == (t - 1) + t * (2 ** (w - 2) - 1)


def test_table_points_validated(curve, tiny_curve, tiny_curve_a2, rng):
    # the builder checks nothing itself: every stored entry of every (t, w),
    # d*B at index d >> 1 of track i, is d * 2**(i*chunk) times the base,
    # against binary multiplication on secp160r1 (the generator and
    # another base) and against the affine oracle on both 13-bit curves and
    # on small7, where width 5's 15*G and width 6's 31*G pass the field's
    # 7 bits
    P = to_affine(mul_binary(rng.getrandbits(N), curve.G))
    multipliers = [(B, lambda k, B=B: jac_tuple(mul_binary(k, B))) for B in (curve.G, P)]
    multipliers += [(c.G, lambda k, c=c: o_mul(k, as_tuple(c.G), *o_of(c)))
                    for c in (tiny_curve, tiny_curve_a2, make_tiny(SMALL7, "small7"))]
    for base, multiply in multipliers:
        for t in range(1, 6):
            for w in WIDTHS:
                table = build_table(base, t, w)
                for i, lookup in enumerate(table.signed):
                    assert len(lookup) == 1 << (w - 2)
                    for d, entry in zip(range(1, 1 << (w - 1), 2), lookup):
                        chunk = -(-base.curve.field.n // t)
                        k = (d << (i * chunk)) % base.curve.order_n
                        pt = (AffinePoint(base.curve, *entry) if entry
                              else AffinePoint.identity(base.curve))
                        assert on_curve(pt), (base, t, w, i, d)
                        assert as_tuple(pt) == multiply(k), (base, t, w, i, d)


def test_table_base_shift(curve):
    table = build_table(curve.G, 2, 2)
    assert ec_eq(lift(AffinePoint(curve, *table.signed[1][0])), mul_binary(1 << 80, curve.G))


def test_tables_hold_each_odd_multiple_once(curve):
    # one entry per odd multiple, plain ints and no mirrored copy: a
    # table's track holds (x, y) pairs, mul_signed's lookup P's pair and
    # then its Jacobian multiples.  The curve keeps a key's (16, 6) table on
    # secp160r1 as 256 pairs, each a 56-byte tuple of two 48-byte ints, in
    # 16 track tuples and one outer tuple of 168 bytes each, under a 56-byte
    # (x, y) key: 38,912 + 2,856 + 56 = 41,824 bytes by tracemalloc.  Each
    # lookup wraps them in a 64-byte table object that goes with it.  The
    # bound leaves about 5% above that
    for t in range(1, 6):
        for w in WIDTHS:
            for lookup in build_table(curve.G, t, w).signed:
                assert len(lookup) == 1 << (w - 2)
                assert all(entry is None or (len(entry) == 2 and {type(v) for v in entry} == {int})
                           for entry in lookup), (t, w)
    for w in WIDTHS:
        lookup = _signed_lookup(curve.G, w)
        assert len(lookup) == 1 << (w - 2)
        assert lookup[0] == (curve.G.x, curve.G.y)
        assert all(len(entry) == 5 and {type(v) for v in entry} == {int} for entry in lookup[1:])
    c = builtin_curve()
    default_table(c)
    P = to_affine(mul_binary(3, c.G))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert fixed_base_table(P).extra_points == 255
        # empties the free lists the build left behind
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 43_900, kept


# --- interleaved multiplication ----------------------------------------------------------

def test_interleave_zero(curve):
    assert mul_interleave(0, default_table(curve)).is_infinity


def test_interleave_matches_binary(curve, rng):
    for t, w in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 4), (5, 3)):
        table = build_table(curve.G, t, w)
        for _ in range(8):
            k = rng.getrandbits(N)
            assert ec_eq(mul_interleave(k, table), mul_binary(k, curve.G))


def test_interleave_non_generator_base(curve, rng):
    # a fixed-base table need not be built on G
    P = to_affine(mul_binary(rng.getrandbits(N), curve.G))
    table = build_table(P, 2, 2)
    for _ in range(5):
        k = rng.getrandbits(N)
        assert ec_eq(mul_interleave(k, table), mul_binary(k, P))


def test_interleave_small_scalars(curve):
    table = default_table(curve)
    for k in (1, 2, 3, 7, 160, 2**80, 2**80 + 5):
        assert ec_eq(mul_interleave(k, table), mul_binary(k, curve.G))


def test_interleave_doubling_bound(curve, rng):
    table = build_table(curve.G, 2, 2)
    for _ in range(30):
        with tally() as ops:
            mul_interleave(rng.getrandbits(N), table)
        assert ops.ecdbl <= 81


def test_interleave_doublings_decrease_with_tracks(curve, rng):
    k = rng.getrandbits(N) | (1 << (N - 1))
    counts = []
    for t in (1, 2, 3, 4, 5):
        table = build_table(curve.G, t, 2)
        with tally() as ops:
            mul_interleave(k, table)
        counts.append(ops.ecdbl)
    assert all(a > b for a, b in zip(counts, counts[1:]))
    # bound: ceil(n/t) + w
    for t, count in zip((1, 2, 3, 4, 5), counts):
        assert count <= -(-N // t) + 2


def test_interleave_rejects_oversized_scalar(curve):
    table = default_table(curve)
    with pytest.raises(TableMismatch):
        mul_interleave(1 << 170, table)


def test_interleave_accepts_order_sized_scalar(curve):
    # the group order is one bit wider than the table design width; the top
    # track absorbs the spill
    table = default_table(curve)
    k = curve.order_n - 1
    assert ec_eq(mul_interleave(k, table), mul_binary(k, curve.G))


def test_interleave_folds_a_second_scalar(curve, rng):
    # k*P + m*G in one chain, for m shorter and longer than the chain
    P = to_affine(mul_binary(rng.getrandbits(N), curve.G))
    p_table = build_table(P, 4, 4)
    for m in (0, 1, 7, 2**24 - 1, 2**32 - 1, 2**60 + 3):
        k = rng.getrandbits(N)
        expected = ec_add_jjj(mul_binary(k, P), mul_binary(m, curve.G))
        assert ec_eq(mul_interleave(k, p_table, m), expected)
    assert ec_eq(mul_interleave(0, p_table, 5), mul_binary(5, curve.G))


def test_interleave_tuple_of_mismatched_tables_rejected_before_any_work(curve, tiny_curve,
                                                                        monkeypatch):
    # a tuple of tables shares one recoding of k, so its tables must share
    # the curve and the shape: one whose track count, width or curve
    # differs, first or last, is refused before k is recoded or any point
    # work is done, with or without m
    def no_recoding(k, w):
        raise AssertionError("recoded before the tables were checked")

    P = to_affine(mul_binary(5, curve.G))
    base = build_table(curve.G, 4, 4)
    others = [build_table(P, 5, 4), build_table(P, 4, 5), build_table(tiny_curve.G, 4, 4)]
    monkeypatch.setattr(scalarmul, "wmof_recode", no_recoding)
    for other in others:
        for tables in [(base, other), (other, base), (base, base, other)]:
            for m in (0, 5):
                with tally() as ops, pytest.raises(TableMismatch):
                    mul_interleave(3, tables, m)
                assert (ops.ecadd, ops.ecdbl, ops.fe_mul, ops.fe_inv) == (0, 0, 0, 0)


def test_fixed_base_table_keeps_one_table_per_base(rng):
    c = builtin_curve()
    # each call wraps the cached tracks in a new table, so the tracks being
    # the same object on every call means each base is built once
    G_table = fixed_base_table(c.G)
    assert default_table(c).signed is G_table.signed
    assert (G_table.t, G_table.w) == FIXED_BASE_SHAPE
    # per track its base and 3, 5, ..., 31 times it: 16*16 points, G among them
    assert G_table.extra_points == 255
    P, Q = (to_affine(mul_binary(rng.getrandbits(N), c.G)) for _ in range(2))
    P_tracks = fixed_base_table(P).signed
    Q_tracks = fixed_base_table(Q).signed
    assert fixed_base_table(P).signed is P_tracks and fixed_base_table(Q).signed is Q_tracks
    G = c.G
    assert c._tables.keys() == {(G.x, G.y), (P.x, P.y), (Q.x, Q.y)}
    assert fixed_base_table(G).signed is G_table.signed


def test_fixed_base_table_fits_the_stated_flash_budget(curve):
    # FIXED_BASE_SHAPE's budget: on secp160r1 an affine point is two
    # 20-byte coordinates, and a base's table stores 16 tracks of 16 odd
    # multiples, 10,240 bytes, so G's and the public key's take 20,480
    # bytes, 16% of a MicaZ's 128 KB of flash
    table = fixed_base_table(curve.G)
    assert (table.t, table.w) == FIXED_BASE_SHAPE
    assert 2 * curve.field.byte_length == 40
    assert 40 * sum(map(len, table.signed)) == 10_240


@pytest.mark.parametrize("name", ["tiny13", "tiny13a2", "small7"])
def test_fixed_base_table_clamps_tracks_to_the_field_width(name):
    # a curve with fewer bits than the shape has tracks gets one track per
    # bit, at the shape's width, and its table multiplies as the oracle
    # does: every k below the group order on small7, the first 600 on the
    # 13-bit curves
    c = make_tiny({"tiny13": TINY, "tiny13a2": TINY_A2, "small7": SMALL7}[name], name)
    t, w = FIXED_BASE_SHAPE
    table = fixed_base_table(c.G)
    assert (table.t, table.w) == (min(t, c.field.n), w)
    assert table.extra_points == table.t * 2 ** (w - 2) - 1
    p, a = o_of(c)
    g, acc = as_tuple(c.G), None
    for k in range(1, min(c.order_n, 600)):
        acc = o_add(acc, g, p, a)
        assert jac_tuple(mul_interleave(k, table)) == acc, (name, k)


# --- signed multiplication -----------------------------------------------------------------

def test_signed_one(curve):
    assert to_affine(mul_signed(1, curve.G, 2)) == curve.G


def test_signed_matches_binary(curve, rng):
    for w in WIDTHS:
        for _ in range(10):
            k = rng.getrandbits(N)
            assert ec_eq(mul_signed(k, curve.G, w), mul_binary(k, curve.G))


def test_signed_addition_count(curve, rng):
    totals = 0
    trials = 200
    for _ in range(trials):
        with tally() as ops:
            mul_signed(rng.getrandbits(N), curve.G, 2)
        totals += ops.ecadd
    mean = totals / trials
    assert abs(mean - N / 3) / (N / 3) < 0.08



def test_negative_scalars_rejected(curve):
    table = default_table(curve)
    for w in WIDTHS:
        with pytest.raises(ValueError):
            mul_signed(-1, curve.G, w)
    with pytest.raises(ValueError):
        mul_interleave(-1, table)
    with pytest.raises(ValueError):
        mul_interleave(3, table, -1)


def test_scan_matches_oracle_across_the_tiny_group_order(tiny_curve, monkeypatch):
    # k runs across the group order 8221, so partial sums in the chain meet
    # the point being added (a doubling) and its negative (the identity);
    # the wrappers count those meetings to show the sweep reaches them,
    # against P itself (affine) or, above width 2, an odd multiple of it
    # (Jacobian)
    p, a = o_of(tiny_curve)
    g = as_tuple(tiny_curve.G)
    P = to_affine(mul_binary(2, tiny_curve.G))
    p_table = build_table(P, 4, 4)
    default_table(tiny_curve)  # the m row's table, built before the wrapper counts
    meets = Counter()

    def counting_add(A, Q):
        R = ec_add_ajj(A, Q)
        if Q.Z and A.x * Q.Z * Q.Z % p == Q.X:
            meets["identity" if R.is_infinity else "doubling"] += 1
        return R

    def counting_jjj(Q1, Q2):
        R = ec_add_jjj(Q1, Q2)
        if Q1.Z and Q2.Z and Q1.X * Q2.Z * Q2.Z % p == Q2.X * Q1.Z * Q1.Z % p:
            meets["identity" if R.is_infinity else "doubling"] += 1
        return R

    monkeypatch.setattr(scalarmul, "ec_add_ajj", counting_add)
    monkeypatch.setattr(scalarmul, "ec_add_jjj", counting_jjj)
    ks = range(8221 - 256, 8221 + 256)
    runs = [(f"w={w}", lambda k, w=w: mul_signed(k, tiny_curve.G, w), lambda k: k)
            for w in WIDTHS]
    runs.append(("interleave", lambda k: mul_interleave(k, p_table, k % 256),
                 lambda k: 2 * k + k % 256))
    for name, multiply, scalar in runs:
        meets.clear()
        for k in ks:
            assert jac_tuple(multiply(k)) == o_mul(scalar(k), g, p, a), (name, k)
        assert meets["doubling"] and meets["identity"], name

# --- group-law ties ---------------------------------------------------------------------------

def test_multiplication_homomorphism(curve, rng):
    for _ in range(20):
        k1 = rng.getrandbits(N)
        k2 = rng.getrandbits(N)
        combined = mul_binary((k1 + k2) % curve.order_n, curve.G)
        summed = ec_add_jjj(mul_binary(k1, curve.G), mul_binary(k2, curve.G))
        assert ec_eq(combined, summed)


# --- table serialization -----------------------------------------------------------------------

def header(curve):
    """Offset of a table file's (n_bits, t, w) fields: magic, name length, name."""
    return 4 + 1 + len(curve.name)


def test_table_file_roundtrip(curve, tmp_path):
    table = build_table(curve.G, 3, 3)
    data = table_to_bytes(table)
    loaded = table_from_bytes(data, curve)
    assert table_to_bytes(loaded) == data
    # the track width follows from the curve and t, as mul_interleave derives it
    assert (loaded.curve.field.n, loaded.t, loaded.w) == (160, 3, 3)
    assert loaded.signed == table.signed
    k = 0x1234567890ABCDEF1234567890ABCDEF12345678
    assert ec_eq(mul_interleave(k, loaded), mul_binary(k, curve.G))


@pytest.mark.parametrize("shape", [(1, 2), (3, 3), FIXED_BASE_SHAPE, (N, 4)])
def test_table_file_is_header_and_base(curve, shape):
    # 4 + 1 + 9 name bytes + 2 + 2 + 1, then the 41-byte base: 60 bytes on
    # secp160r1 whatever the shape
    data = table_to_bytes(build_table(curve.G, *shape))
    at = header(curve)
    assert len(data) == 60
    assert data[at:at + 5] == N.to_bytes(2, "big") + shape[0].to_bytes(2, "big") + bytes([shape[1]])
    assert data[at + 5:] == point_to_bytes(curve.G)


SECP256K1 = """
name = secp256k1
n = 100
c = 1000003d1
a = 0
b = 7
gx = 79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798
gy = 483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8
order_n = fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141
"""


def test_table_of_256_tracks_round_trips():
    # t takes two bytes: 256 tracks of one bit each on a 256-bit field
    curve = curve_from_config(SECP256K1)
    table = build_table(curve.G, 256, 2)
    data = table_to_bytes(table)
    loaded = table_from_bytes(data, curve)
    assert loaded.t == 256 and table_to_bytes(loaded) == data
    k = curve.order_n - 12345
    assert ec_eq(mul_interleave(k, loaded), mul_binary(k, curve.G))


def test_table_of_another_base_loads_as_that_base(curve):
    P = to_affine(mul_binary(0xABCDEF, curve.G))
    loaded = table_from_bytes(table_to_bytes(build_table(P, 2, 3)), curve)
    assert loaded.signed[0][0] == (P.x, P.y)
    assert ec_eq(mul_interleave(1000, loaded), mul_binary(1000, P))


def test_table_tampered_point_rejected(curve):
    data = bytearray(table_to_bytes(build_table(curve.G, 2, 2)))
    data[-1] ^= 0x01
    with pytest.raises(OffCurvePoint):
        table_from_bytes(bytes(data), curve)


def test_table_altered_n_bits_rejected(curve):
    data = bytearray(table_to_bytes(build_table(curve.G, 2, 2)))
    at = header(curve)
    assert int.from_bytes(data[at:at + 2], "big") == N
    data[at:at + 2] = (100).to_bytes(2, "big")
    with pytest.raises(TableMismatch):
        table_from_bytes(bytes(data), curve)


def test_table_header_n_bits_rejected_before_any_work(curve):
    # a wrong n_bits is rejected from the header alone, before the base is
    # decoded or any table is built
    data = bytearray(table_to_bytes(build_table(curve.G, 2, 2)))
    at = header(curve)
    data[at:at + 2] = (0xFFFF).to_bytes(2, "big")
    with tally() as ops, pytest.raises(TableMismatch):
        table_from_bytes(bytes(data), curve)
    assert (ops.ecadd, ops.ecdbl, ops.fe_mul) == (0, 0, 0)


def test_table_header_track_count_rejected_before_any_work(curve):
    # no tracks, or more tracks than the field has bits, is rejected from
    # the header alone, before the base is decoded or any table is built
    data = bytearray(table_to_bytes(build_table(curve.G, 2, 2)))
    at = header(curve) + 2
    for t in (0, N + 1, 0xFFFF):
        data[at:at + 2] = t.to_bytes(2, "big")
        with tally() as ops, pytest.raises(BadEncoding):
            table_from_bytes(bytes(data), curve)
        assert (ops.ecadd, ops.ecdbl, ops.fe_mul) == (0, 0, 0)


def test_table_header_width_rejected_before_any_work(curve):
    data = bytearray(table_to_bytes(build_table(curve.G, 2, 2)))
    for w in (0, 1, scalarmul.MAX_RECODING_WIDTH + 1, 0xFF):
        data[header(curve) + 4] = w
        with tally() as ops, pytest.raises(BadEncoding):
            table_from_bytes(bytes(data), curve)
        assert (ops.ecadd, ops.ecdbl, ops.fe_mul) == (0, 0, 0)


def test_table_of_identities_rejected(curve):
    # a file whose base is the identity: the build of an identity base is
    # all identities, so only the identity check refuses it
    head = table_to_bytes(build_table(curve.G, 2, 3))[:header(curve) + 5]
    with pytest.raises(BadEncoding, match="identity"):
        table_from_bytes(head + point_to_bytes(AffinePoint.identity(curve)), curve)


def test_table_trailing_bytes_rejected(curve):
    data = table_to_bytes(build_table(curve.G, 2, 2))
    with pytest.raises(BadEncoding, match="trailing"):
        table_from_bytes(data + point_to_bytes(curve.G), curve)


@pytest.mark.parametrize("t", [0, N + 1])
def test_build_table_rejects_track_count(curve, t):
    with pytest.raises(ValueError, match="track count"):
        build_table(curve.G, t, 2)


@pytest.mark.parametrize("w", [1, scalarmul.MAX_RECODING_WIDTH + 1])
def test_build_table_rejects_width(curve, w):
    with pytest.raises(UnsupportedWidth):
        build_table(curve.G, 2, w)


def test_table_bad_magic_rejected(curve):
    data = b"XXXX" + table_to_bytes(build_table(curve.G, 2, 2))[4:]
    with pytest.raises(BadEncoding):
        table_from_bytes(data, curve)


def test_table_truncation_rejected(curve):
    # every proper prefix, inside the header or the base
    data = table_to_bytes(build_table(curve.G, 2, 2))
    for end in range(len(data)):
        with pytest.raises(BadEncoding):
            table_from_bytes(data[:end], curve)


def test_table_curve_mismatch(curve, tiny_curve):
    data = table_to_bytes(build_table(tiny_curve.G, 2, 2))
    with pytest.raises(TableMismatch):
        table_from_bytes(data, curve)


def test_interleave_on_tiny_curve(tiny_curve, rng):
    table = build_table(tiny_curve.G, 2, 2)
    for _ in range(50):
        k = rng.getrandbits(13)
        assert ec_eq(mul_interleave(k, table), mul_binary(k, tiny_curve.G))
