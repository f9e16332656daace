"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned: density within 0.01 of
1/(1+w), interleaved doubling mean at most 0.52 of the binary scan's,
exhaustive reverse mapping under 60 seconds.
"""

import random
import time

import pytest

from conftest import as_point, as_tuple, jac_tuple, o_add, o_of
from ecagg.counters import tally
from ecagg.curve import (
    ec_add_ajj,
    ec_dbl_jj,
    ec_eq,
    ec_neg,
    lift,
    on_curve,
    to_affine,
)
from ecagg.elgamal import (
    ct_add,
    ct_from_bytes,
    ct_identity,
    ct_to_bytes,
    decrypt,
    encrypt,
    keygen,
    map_message,
    rmap,
)
from ecagg.errors import NotFound, OffCurvePoint
from ecagg.field import (
    fe_add,
    fe_inv,
    fe_mul,
    fe_square,
    fe_sub,
    FieldElement,
)
from ecagg.scalarmul import (
    build_table,
    mul_binary,
    mul_interleave,
    mul_signed,
    table_from_bytes,
    table_to_bytes,
    wmof_recode,
)
from test_aggsim import DEMO, random_tree
from ecagg.aggsim import run_round, scenario_from_text

N = 160

T_RANGE = (1, 2, 3, 4, 5)
W_RANGE = (2, 3, 4)

DENSITY_TOL = 0.01
DOUBLING_RATIO_BOUND = 0.52
FIELD_SUITE_SECONDS = 10.0
RMAP_SECONDS = 60.0


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


def test_criterion_1_field_oracle_suite(fp160):
    rng = random.Random(0xF1E1D)
    p = fp160.p
    start = time.perf_counter()
    cases = 0
    boundaries = [0, 1, 2, fp160.c - 1, fp160.c, 1 << (N - 1), p - 2, p - 1]
    pairs = [(a, b) for a in boundaries for b in boundaries]
    pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(10_000)]
    for a, b in pairs:
        fa, fb = FieldElement(a, fp160), FieldElement(b, fp160)
        assert fe_add(fa, fb).value == (a + b) % p
        assert fe_sub(fa, fb).value == (a - b) % p
        assert fe_mul(fa, fb).value == a * b % p
        assert fe_square(fa).value == a * a % p
        if a:
            assert fe_inv(fa).value == pow(a, p - 2, p)
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < FIELD_SUITE_SECONDS
    report(1, f"{cases} cases matched the big-integer oracle in {elapsed:.1f}s")


def test_criterion_2_curve_oracle_suite(curve):
    from conftest import o_mul
    rng = random.Random(0xC2)
    p, a = o_of(curve)
    g = as_tuple(curve.G)
    cur = o_mul(rng.getrandbits(48) | 1, g, p, a)
    pts = []
    for _ in range(2000):
        pts.append(cur)
        cur = o_add(cur, g, p, a)
    pairs = 0
    for i in range(0, 2000, 2):
        T1, T2 = pts[i], pts[i + 1]
        P1, P2 = as_point(T1, curve), as_point(T2, curve)
        got_add = ec_add_ajj(P1, lift(P2))
        assert jac_tuple(got_add) == o_add(T1, T2, p, a)
        assert on_curve(to_affine(got_add))                      # closure
        assert jac_tuple(ec_dbl_jj(lift(P1))) == o_add(T1, T1, p, a)
        assert ec_eq(got_add, ec_add_ajj(P2, lift(P1)))          # commutativity
        assert ec_add_ajj(P1, lift(ec_neg(P1))).is_infinity      # inverse
        pairs += 1
    for i in range(0, 300, 3):                                   # associativity
        P1, P2, P3 = (as_point(pts[i + j], curve) for j in range(3))
        assert ec_eq(ec_add_ajj(P1, ec_add_ajj(P2, lift(P3))),
                     ec_add_ajj(P3, ec_add_ajj(P2, lift(P1))))
    report(2, f"{pairs} random pairs matched the affine-formula oracle")


def test_criterion_3_scalar_mult_equivalence(curve, tiny_curve):
    # part A: binary method vs naive repeated addition, exhaustive to 2**12
    # on the small-order curve
    p, a = o_of(tiny_curve)
    g = as_tuple(tiny_curve.G)
    acc = None
    for k in range(0, (1 << 12) + 1):
        assert jac_tuple(mul_binary(k, tiny_curve.G)) == acc
        acc = o_add(acc, g, p, a)

    # part B: signed and interleaved multipliers vs the binary baseline,
    # 10**3 random 160-bit scalars, every (t, w) configuration
    rng = random.Random(0xC3)
    tables = {(t, w): build_table(curve.G, t, w) for t in T_RANGE for w in W_RANGE}
    checked = 0
    for _ in range(1000):
        k = rng.getrandbits(N)
        baseline = mul_binary(k, curve.G)
        for w in W_RANGE:
            assert ec_eq(mul_signed(k, curve.G, w), baseline)
        for table in tables.values():
            assert ec_eq(mul_interleave(k, table), baseline)
        checked += 1
    report(3, f"exhaustive small-order sweep plus {checked} scalars x "
              f"{len(tables)} interleave configs and {len(W_RANGE)} signed widths")


def test_criterion_4_wmof_density():
    rng = random.Random(0xC4)
    for w in W_RANGE:
        nonzero = 0
        samples = 10_000
        for _ in range(samples):
            nonzero += sum(1 for d in wmof_recode(rng.getrandbits(N), w) if d)
        density = nonzero / samples / N
        target = 1 / (1 + w)
        assert abs(density - target) < DENSITY_TOL, (w, density)
    report(4, f"densities within {DENSITY_TOL} of 1/(1+w) for w in {W_RANGE}")


def test_criterion_5_precomputation_count(curve):
    for t in T_RANGE:
        for w in W_RANGE:
            table = build_table(curve.G, t, w)
            assert table.extra_points == (t - 1) + t * (2 ** (w - 2) - 1)
    assert build_table(curve.G, 2, 2).extra_points == 1
    assert build_table(curve.G, 3, 2).extra_points == 2
    report(5, "extra-point counts match (t-1) + t*(2^(w-2)-1); 1 at (2,2), 2 at (3,2)")


def test_criterion_6_doubling_reduction(curve):
    rng = random.Random(0xC6)
    table = build_table(curve.G, 2, 2)
    bin_total = 0
    int_total = 0
    for _ in range(100):
        k = rng.getrandbits(N)
        with tally() as t:
            mul_binary(k, curve.G)
        bin_total += t.ecdbl
        with tally() as t:
            mul_interleave(k, table)
        int_total += t.ecdbl
    ratio = int_total / bin_total
    assert ratio <= DOUBLING_RATIO_BOUND, ratio
    report(6, f"mean ECDBL ratio (t=2 vs binary) over 100 trials: {ratio:.3f}")


def test_criterion_7_homomorphic_end_to_end(curve):
    rng = random.Random(0xC7)
    keys = keygen(rng, curve)

    result = run_round(scenario_from_text(DEMO), keys, rng, max_bits=16)
    assert result.recovered_sum == 63

    rounds = 0
    for _ in range(100):
        text, expected = random_tree(rng, max_fanout=8, depth=4)
        out = run_round(scenario_from_text(text), keys, rng, max_bits=24)
        assert out.recovered_sum == expected
        rounds += 1

    messages = [rng.getrandbits(8) for _ in range(16)]
    total = ct_identity(curve)
    for m in messages:
        total = ct_add(total, encrypt(keys.public_Y, m, rng))
    assert decrypt(keys.secret_x, total, (1 << 16) - 1) == sum(messages)
    report(7, f"demo sum 63; {rounds} random trees exact; 16-message fold round-tripped")


def test_criterion_8_rmap(curve):
    rng = random.Random(0xC8)
    keys = keygen(rng, curve)
    bound = 1 << 16

    start = time.perf_counter()
    from ecagg.curve import JacobianPoint
    cur_point = JacobianPoint.infinity(curve)
    for m in range(0, bound + 1):
        # cur_point accumulates to m*G, the value map_message(m) returns
        assert rmap(cur_point, bound) == m
        cur_point = ec_add_ajj(curve.G, cur_point)
    for m in (0, 1, bound) + tuple(rng.randrange(bound) for _ in range(50)):
        assert rmap(map_message(m, curve), bound) == m
    elapsed = time.perf_counter() - start
    assert elapsed < RMAP_SECONDS

    wrong = keygen(rng, curve)
    assert wrong.secret_x != keys.secret_x
    misses = 0
    for _ in range(100):
        ct = encrypt(keys.public_Y, rng.randrange(bound), rng)
        with pytest.raises(NotFound):
            decrypt(wrong.secret_x, ct, bound)
        misses += 1
    report(8, f"exhaustive [0, 2^16] in {elapsed:.1f}s; wrong key missed {misses}/100")


def test_criterion_9_serialization(curve):
    rng = random.Random(0xC9)
    keys = keygen(rng, curve)

    for _ in range(50):
        ct = encrypt(keys.public_Y, rng.randrange(1 << 16), rng)
        data = ct_to_bytes(ct)
        assert ct_to_bytes(ct_from_bytes(data, curve)) == data

    corrupted = bytearray(ct_to_bytes(encrypt(keys.public_Y, 5, rng)))
    corrupted[10] ^= 0x02
    with pytest.raises(OffCurvePoint):
        ct_from_bytes(bytes(corrupted), curve)

    table = build_table(curve.G, 3, 3)
    data = table_to_bytes(table)
    assert table_to_bytes(table_from_bytes(data, curve)) == data
    tampered = bytearray(data)
    tampered[-1] ^= 0x01
    with pytest.raises(OffCurvePoint):
        table_from_bytes(bytes(tampered), curve)
    report(9, "ciphertext and table round-trips byte-exact; tampering rejected")
