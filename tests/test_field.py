"""Field arithmetic against a plain big-integer oracle."""

import random

import pytest

from ecagg.counters import tally
from ecagg.errors import NonCanonical, ZeroInverse
from ecagg.field import (
    FieldElement,
    FieldParams,
    fe_add,
    fe_inv,
    fe_mul,
    fe_square,
    fe_sub,
    mod_inv_batch,
    mod_reduce,
)

N = 160
C = 2**31 + 1
P = 2**N - C

TRIALS = 1000


def boundary_values(f):
    return [0, 1, 2, f.c - 1, f.c, 1 << (f.n - 1), f.p - 2, f.p - 1]


def fe(v, f):
    return FieldElement(v, f)


# --- construction -----------------------------------------------------------

def test_params_shape(fp160):
    assert fp160.p == P
    assert fp160.c == C
    assert fp160.byte_length == 20


def test_params_reject_composite():
    # 2**16 - 1 = 65535 = 3 * 5 * 17 * 257
    with pytest.raises(ValueError):
        FieldParams(16, 1)


def test_params_reject_large_c():
    with pytest.raises(ValueError):
        FieldParams(160, 1 << 90)


def test_element_rejects_noncanonical(fp160):
    with pytest.raises(NonCanonical):
        FieldElement(P, fp160)


# --- addition / subtraction -------------------------------------------------

def test_add_examples(fp160):
    f = fp160
    assert fe_add(fe(0, f), fe(0, f)).value == 0
    assert fe_add(fe(P - 1, f), fe(1, f)).value == 0
    # oracle: (2p - 2) mod p = p - 2
    assert fe_add(fe(P - 1, f), fe(P - 1, f)).value == P - 2


def test_add_oracle(fp160, rng):
    for _ in range(TRIALS):
        a, b = rng.randrange(P), rng.randrange(P)
        r = fe_add(fe(a, fp160), fe(b, fp160)).value
        assert r == (a + b) % P
        assert r < P


def test_add_boundary_pairs(fp160):
    vals = boundary_values(fp160)
    for a in vals:
        for b in vals:
            assert fe_add(fe(a, fp160), fe(b, fp160)).value == (a + b) % P


def test_sub_examples(fp160, rng):
    f = fp160
    x = rng.randrange(P)
    assert fe_sub(fe(x, f), fe(x, f)).value == 0
    assert fe_sub(fe(0, f), fe(1, f)).value == P - 1
    # oracle: (3 - 5) mod p = p - 2
    assert fe_sub(fe(3, f), fe(5, f)).value == P - 2


def test_sub_oracle(fp160, rng):
    for _ in range(TRIALS):
        a, b = rng.randrange(P), rng.randrange(P)
        r = fe_sub(fe(a, fp160), fe(b, fp160)).value
        assert r == (a - b) % P
        assert r < P


def test_sub_boundary_pairs(fp160):
    vals = boundary_values(fp160)
    for a in vals:
        for b in vals:
            assert fe_sub(fe(a, fp160), fe(b, fp160)).value == (a - b) % P


# --- multiplication and reduction -------------------------------------------

def test_reduce_examples(fp160):
    f = fp160
    assert mod_reduce(f, P) == 0
    assert mod_reduce(f, 1 << N) == C
    # oracle: (p-1)^2 mod p = 1
    assert (P - 1) ** 2 % P == 1
    assert mod_reduce(f, (P - 1) ** 2) == 1


def test_reduce_random_wide(fp160, rng):
    for _ in range(TRIALS):
        r = rng.randrange(1 << (2 * N))
        out = mod_reduce(fp160, r)
        assert out == r % P
        assert out < P


def _two_folds(f, r):
    for _ in range(2):
        r = (r >> f.n) * f.c + (r & f.mask)
    return r


def test_reduce_products_take_two_passes(fp160, rng):
    # products of canonical operands, reduced by the two fixed folds
    for _ in range(300):
        a, b = rng.randrange(P), rng.randrange(P)
        assert mod_reduce(fp160, a * b) == a * b % P
    assert mod_reduce(fp160, (P - 1) ** 2) == 1


def test_reduce_adversarial_three_pass_input(fp160):
    # crafted below (p-1)^2 so that the second substitution still overflows
    # by one bit: only the final conditional add of c brings it below p
    r = ((1 << N) - 2 * C - 3) * (1 << N) + (2 * C + 3) * C - 1
    assert r < (P - 1) ** 2
    assert _two_folds(fp160, r) >> N
    assert mod_reduce(fp160, r) == r % P


# the largest c below 2**80 for which 2**160 - c is prime, at the edge of
# FieldParams' c < 2**(n/2) rule
EDGE_C = 2**80 - 157


def test_edge_c_is_the_largest_allowed_below_2_80():
    FieldParams(160, EDGE_C)
    for c in range(EDGE_C + 1, 2**80):
        with pytest.raises(ValueError, match="not prime"):
            FieldParams(160, c)
    with pytest.raises(ValueError, match="below"):
        FieldParams(160, 2**80)


def test_reduce_at_the_edge_of_the_c_rule():
    f = FieldParams(160, EDGE_C)
    p = f.p
    # the crafted input folds once to c*2**n - 1, whose second fold
    # overflows the n-bit word, as 2**320 - 1's does
    crafted = ((1 << N) - 1) * (1 << N) + EDGE_C - 1
    for r in (crafted, 2**320 - 1):
        assert _two_folds(f, r) >> N
    for r in ((p - 1) ** 2, 2**320 - 1, crafted):
        assert mod_reduce(f, r) == r % p


def test_mul_examples(fp160, rng):
    f = fp160
    x = rng.randrange(P)
    assert fe_mul(fe(1, f), fe(x, f)).value == x
    # oracle: 2 * (p-1) mod p = p - 2
    assert fe_mul(fe(2, f), fe(P - 1, f)).value == P - 2


def test_mul_oracle(fp160, rng):
    for _ in range(TRIALS):
        a, b = rng.randrange(P), rng.randrange(P)
        r = fe_mul(fe(a, fp160), fe(b, fp160)).value
        assert r == a * b % P
        assert r < P


def test_mul_boundary_pairs(fp160):
    vals = boundary_values(fp160)
    for a in vals:
        for b in vals:
            assert fe_mul(fe(a, fp160), fe(b, fp160)).value == a * b % P


def test_mul_is_reduce_of_raw(fp160, rng):
    for _ in range(200):
        a = fe(rng.randrange(P), fp160)
        b = fe(rng.randrange(P), fp160)
        assert fe_mul(a, b).value == mod_reduce(fp160, a.value * b.value)


def test_square_delegates_to_mul(fp160, rng):
    f = fp160
    assert fe_square(fe(0, f)).value == 0
    assert fe_square(fe(1, f)).value == 1
    for _ in range(200):
        a = fe(rng.randrange(P), f)
        assert fe_square(a) == fe_mul(a, a)


# --- inversion ---------------------------------------------------------------

def test_inv_examples(fp160):
    f = fp160
    assert fe_inv(fe(1, f)).value == 1
    assert fe_inv(fe(P - 1, f)).value == P - 1


def test_inv_multiplicative(fp160, rng):
    for _ in range(200):
        a = fe(rng.randrange(1, P), fp160)
        assert fe_mul(a, fe_inv(a)).value == 1


def test_inv_zero_raises(fp160):
    with pytest.raises(ZeroInverse):
        fe_inv(fe(0, fp160))


@pytest.mark.parametrize("n", [1, 2, 33])
def test_inv_batch_matches_pow(fp160, rng, n):
    # one inversion and 3(n - 1) multiplications, whatever the length
    xs = [rng.randrange(1, P) for _ in range(n - 1)] + [P - 1]
    with tally() as t:
        out = mod_inv_batch(fp160, xs)
    assert out == [pow(x, -1, P) for x in xs]
    assert (t.fe_inv, t.fe_mul) == (1, 3 * (n - 1))


@pytest.mark.parametrize("xs", [[0], [3, 0], [0, 3, 5], [7, P]], ids=["alone", "last", "first", "p"])
def test_inv_batch_zero_raises(fp160, xs):
    with tally() as t, pytest.raises(ZeroInverse):
        mod_inv_batch(fp160, xs)
    assert (t.fe_inv, t.fe_mul) == (0, 0)


# --- algebra ------------------------------------------------------------------

def test_field_axioms(fp160, rng):
    f = fp160
    for _ in range(1000):
        a, b, c = (fe(rng.randrange(P), f) for _ in range(3))
        assert fe_add(a, b) == fe_add(b, a)
        assert fe_mul(a, b) == fe_mul(b, a)
        assert fe_add(fe_add(a, b), c) == fe_add(a, fe_add(b, c))
        assert fe_mul(fe_mul(a, b), c) == fe_mul(a, fe_mul(b, c))
        assert fe_mul(a, fe_add(b, c)) == fe_add(fe_mul(a, b), fe_mul(a, c))
