"""Recoding invariants and multiplier equivalence."""

from collections import Counter

import pytest

from conftest import as_tuple, jac_tuple, o_add, o_mul, o_of
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
    build_table,
    default_table,
    fixed_base_table,
    mul_binary,
    mul_interleave,
    mul_signed,
    split_scalar,
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

def test_wmof_zero_and_one():
    assert wmof_recode(0, 2) == (0,)
    assert wmof_recode(1, 2) == (1,)


def test_wmof_width_two_digit_set(rng):
    for _ in range(200):
        digits = wmof_recode(rng.getrandbits(N), 2)
        assert all(d in (-1, 0, 1) for d in digits)


def test_wmof_invariants(rng):
    for w in (2, 3, 4):
        bound = (1 << (w - 1)) - 1
        for _ in range(700):
            k = rng.getrandbits(N)
            digits = wmof_recode(k, w)
            assert sum(d << i for i, d in enumerate(digits)) == k
            nonzero = [i for i, d in enumerate(digits) if d]
            for i in nonzero:
                assert digits[i] % 2 != 0
                assert abs(digits[i]) <= bound
            for a, b in zip(nonzero, nonzero[1:]):
                assert b - a >= w


def test_wmof_rejects_bad_width():
    with pytest.raises(UnsupportedWidth):
        wmof_recode(5, 1)
    with pytest.raises(UnsupportedWidth):
        wmof_recode(5, 5)


def test_wmof_density_quick(rng):
    total = 0
    samples = 2000
    for _ in range(samples):
        total += sum(1 for d in wmof_recode(rng.getrandbits(N), 2) if d)
    assert abs(total / samples / N - 1 / 3) < 0.015


# --- scalar splitting ---------------------------------------------------------------

def test_split_single_track(rng):
    k = rng.getrandbits(N)
    assert split_scalar(k, 1, N) == [k]


def test_split_zero():
    assert split_scalar(0, 4, N) == [0, 0, 0, 0]


def test_split_recombines(rng):
    for t in (2, 3, 4, 5):
        chunk = -(-N // t)
        for _ in range(200):
            k = rng.getrandbits(N)
            parts = split_scalar(k, t, N)
            assert len(parts) == t
            assert all(part < (1 << chunk) for part in parts)
            assert sum(part << (i * chunk) for i, part in enumerate(parts)) == k


def test_split_chunk_widths():
    # 160 padded to a multiple of t: chunks 160, 80, 54, 40, 32
    for t, chunk in ((1, 160), (2, 80), (3, 54), (4, 40), (5, 32)):
        assert -(-N // t) == chunk


# --- precomputation table --------------------------------------------------------------

def test_table_extra_point_counts(curve):
    for t, w, expected in ((2, 2, 1), (3, 2, 2), (2, 3, 3), (1, 2, 0), (3, 4, 11)):
        table = build_table(curve.G, t, w)
        assert table.extra_points == expected
        assert table.extra_points == (t - 1) + t * (2 ** (w - 2) - 1)


def test_table_points_validated(curve, tiny_curve, tiny_curve_a2, rng):
    # the builder checks nothing itself: every lookup entry of every (t, w),
    # the stored points and their mirrors, is d * 2**(i*chunk) times its
    # base, against binary multiplication on secp160r1 (the generator and
    # another base) and against the affine oracle on both small curves
    P = to_affine(mul_binary(rng.getrandbits(N), curve.G))
    multipliers = [(B, lambda k, B=B: jac_tuple(mul_binary(k, B))) for B in (curve.G, P)]
    multipliers += [(c.G, lambda k, c=c: o_mul(k, as_tuple(c.G), *o_of(c)))
                    for c in (tiny_curve, tiny_curve_a2)]
    for base, multiply in multipliers:
        for t in range(1, 6):
            for w in range(2, 5):
                table = build_table(base, t, w)
                for i, lookup in enumerate(table.signed):
                    assert sorted(lookup) == [d for d in range(1 - (1 << (w - 1)), 1 << (w - 1))
                                              if d % 2]
                    for d, pt in lookup.items():
                        chunk = -(-base.curve.field.n // t)
                        k = (d << (i * chunk)) % base.curve.order_n
                        assert on_curve(pt), (base, t, w, i, d)
                        assert as_tuple(pt) == multiply(k), (base, t, w, i, d)


def test_table_base_shift(curve):
    table = build_table(curve.G, 2, 2)
    assert ec_eq(lift(table.signed[1][1]), mul_binary(1 << 80, curve.G))


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


def test_fixed_base_table_keeps_one_table_per_base(rng):
    c = builtin_curve()
    G_table = fixed_base_table(c.G)
    assert default_table(c) is G_table and (G_table.t, G_table.w) == FIXED_BASE_SHAPE
    # per track its base and 3, 5 and 7 times it: 8*4 points, G among them
    assert G_table.extra_points == 31
    P, Q = (to_affine(mul_binary(rng.getrandbits(N), c.G)) for _ in range(2))
    P_table = fixed_base_table(P)
    Q_table = fixed_base_table(Q)
    assert fixed_base_table(P) is P_table and fixed_base_table(Q) is Q_table
    assert c._tables.keys() == {c.G, P, Q}
    assert fixed_base_table(c.G) is G_table


# --- signed multiplication -----------------------------------------------------------------

def test_signed_one(curve):
    assert to_affine(mul_signed(1, curve.G, 2)) == curve.G


def test_signed_matches_binary(curve, rng):
    for w in (2, 3, 4):
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
    for w in (2, 3, 4):
        with pytest.raises(ValueError):
            mul_signed(-1, curve.G, w)
    with pytest.raises(ValueError):
        mul_interleave(-1, table)
    with pytest.raises(ValueError):
        mul_interleave(3, table, -1)


def test_scan_matches_oracle_across_the_tiny_group_order(tiny_curve, monkeypatch):
    # k runs across the group order 8221, so partial sums in the chain meet
    # the point being added (a doubling) and its negative (the identity);
    # the wrapper counts those meetings to show the sweep reaches them
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

    monkeypatch.setattr(scalarmul, "ec_add_ajj", counting_add)
    ks = range(8221 - 256, 8221 + 256)
    runs = [(f"w={w}", lambda k, w=w: mul_signed(k, tiny_curve.G, w), lambda k: k)
            for w in (2, 3, 4)]
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
    # the track width follows from the curve and t, as _track_rows derives it
    assert (loaded.curve.field.n, loaded.t, loaded.w) == (160, 3, 3)
    assert loaded.stored_points() == table.stored_points()
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
    assert loaded.stored_points()[0] == P
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
