"""Encryption round trips, the additive property, and the wire format."""

import gc
import hashlib
import os
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from conftest import (
    MULTIPLES_COUNTS,
    SECP_BABY_LOGS,
    SMALL7,
    TINY,
    TINY_A2,
    ForcedK,
    as_point,
    as_tuple,
    at_z,
    check_baby_log,
    check_ct_to_bytes_over_z_classes,
    check_multiples,
    make_tiny,
    o_add,
    o_mul,
    o_of,
    oracle_points,
    wire_decode,
    wire_encode,
    x_equal_p_bytes,
)

import ecagg
from ecagg.curve import (
    AffinePoint,
    JacobianPoint,
    builtin_curve,
    decode_point,
    ec_add_jjj,
    ec_eq,
    ec_neg,
    lift,
    on_curve,
    point_to_bytes,
    to_affine,
)
from ecagg.elgamal import (
    _multiples,
    bsgs_cache,
    ct_add,
    ct_from_bytes,
    ct_identity,
    ct_to_bytes,
    decrypt,
    encrypt,
    keygen,
    load_public_key,
    load_secret_key,
    map_message,
    rmap,
    save_keypair,
)
from ecagg.counters import FIELDS, tally
from ecagg.errors import (
    BadConfig,
    BadEncoding,
    MessageTooLarge,
    NotFound,
    OffCurvePoint,
)
from ecagg import elgamal, scalarmul
from ecagg.scalarmul import default_table, fixed_base_table, mul_binary, mul_interleave


@pytest.fixture(scope="module")
def keys(curve):
    return keygen(random.Random(0x5EED), curve)


# --- key generation ---------------------------------------------------------------

def test_keygen_reproducible(curve):
    k1 = keygen(random.Random(99), curve)
    k2 = keygen(random.Random(99), curve)
    assert k1.secret_x == k2.secret_x
    assert k1.public_Y == k2.public_Y


def test_keygen_public_on_curve(keys):
    assert on_curve(keys.public_Y)
    assert not keys.public_Y.infinity


def test_keygen_unit_secret(curve):
    kp = keygen(ForcedK(1), curve)
    assert kp.secret_x == 1
    assert kp.public_Y == curve.G


# --- message mapping ----------------------------------------------------------------

def test_map_zero(curve):
    assert map_message(0, curve).is_infinity


def test_map_one(curve):
    assert to_affine(map_message(1, curve)) == curve.G


def test_map_homomorphy(curve, rng):
    for _ in range(30):
        m1, m2 = rng.randrange(1 << 11), rng.randrange(1 << 11)
        lhs = ec_add_jjj(map_message(m1, curve), map_message(m2, curve))
        assert ec_eq(lhs, map_message(m1 + m2, curve))


def test_map_rejects_oversized(curve):
    with pytest.raises(MessageTooLarge):
        map_message(1 << 24, curve)
    with pytest.raises(MessageTooLarge):
        map_message(-1, curve)


# --- reverse mapping ------------------------------------------------------------------

def test_rmap_identity_and_generator(curve):
    from ecagg.curve import JacobianPoint
    assert rmap(JacobianPoint.infinity(curve), 100) == 0
    assert rmap(lift(curve.G), 100) == 1


def test_rmap_roundtrip_incremental(rng):
    # a fresh curve, so the bound of 2**10 - 1 builds its own stride-512
    # table (with one giant step) rather than reusing a larger one
    curve = builtin_curve()
    for _ in range(40):
        m = rng.randrange(1 << 10)
        assert rmap(map_message(m, curve), (1 << 10) - 1) == m
    assert curve._rmap_cache[0] == 512


def test_rmap_roundtrip_bsgs(curve, rng):
    for _ in range(200):
        m = rng.randrange(1 << 16)
        assert rmap(map_message(m, curve), (1 << 16) - 1) == m


def test_rmap_not_found(curve):
    with pytest.raises(NotFound):
        rmap(map_message(50, curve), 49)
    with pytest.raises(NotFound):
        rmap(map_message(40000, curve), 30000)


BOUND24 = (1 << 24) - 1
STRIDE = 1 << 14  # the baby-step stride at that bound; giant steps batch by 32


@pytest.mark.parametrize("m", [i * STRIDE + d for i in (1, 31, 32, 33, 1023) for d in (-1, 0, 1)]
                         + [BOUND24, 0, 1, 512 * STRIDE])
def test_rmap_giant_batch_edges(curve, m):
    # even i*STRIDE is a window's centre, where M - 2**23*G is a giant point
    # or its negative (equal x), odd i*STRIDE sits on the edge two windows
    # share; 0 and 1 are
    # window 0, and 512*STRIDE = 2**23 the walk's middle window, where
    # M - 2**23*G is the identity
    assert rmap(map_message(m, curve), BOUND24) == m


@pytest.mark.parametrize("scalar", [BOUND24 + 1, -1, -(STRIDE - 1), -STRIDE, -32 * STRIDE,
                                    -33 * STRIDE, -1023 * STRIDE],
                         ids=["above", "-1", "-baby", "-1stride", "-32stride", "-33stride",
                              "-1023stride"])
def test_rmap_out_of_range_not_found(curve, scalar):
    # -j*G shares its x with a baby entry, so only the y check rejects it;
    # -(2i*STRIDE)*G equals the ith giant point, the step left out of its
    # batch
    with pytest.raises(NotFound):
        rmap(mul_binary(scalar % curve.order_n, curve.G), BOUND24)


def test_search_bound_ceiling_rejected_before_any_work(curve, keys, rng):
    ct = encrypt(keys.public_Y, 5, rng)
    M = map_message(5, curve)
    with tally() as t:
        for bound in (1 << 32, -1):
            with pytest.raises(MessageTooLarge):
                rmap(M, bound)
            with pytest.raises(MessageTooLarge):
                decrypt(keys.secret_x, ct, bound)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]


@pytest.mark.parametrize("m, bound", [(4125, 8219), (5, 2**20)])
def test_search_bound_near_the_group_order_rejected_before_any_work(m, bound):
    # tiny13's order is 8221.  At 8219 the giant points are 4096 apart and
    # the last window is centered on 8192, so the bound reaches the log of
    # -4096*G = 4125*G, a giant point, which the search skips as beyond it.
    # At 2**20 the giant spacing, 2**15, exceeds the order, and the baby
    # lanes would reach the identity
    c = make_tiny(TINY, "tiny13")
    M = mul_binary(m, c.G)
    with tally() as t, pytest.raises(MessageTooLarge):
        rmap(M, bound)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]
    assert c._rmap_cache is None


def test_one_search_table_serves_smaller_bounds():
    c = builtin_curve()
    table = bsgs_cache(c, BOUND24)
    assert table[0] == STRIDE
    with tally() as t:
        for bound in ((1 << 16) - 1, 4096, 1000, 0):
            assert bsgs_cache(c, bound) is table
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]
    assert c._rmap_cache is table
    # the stride-2**14 baby table holds 5000*G and G, but both lie above the bound
    with pytest.raises(NotFound):
        rmap(map_message(5000, c), 4096)
    with pytest.raises(NotFound):
        rmap(map_message(1, c), 0)
    assert rmap(map_message(4096, c), 4096) == 4096
    assert rmap(map_message(0, c), 0) == 0


# The negation map: giant step i is centered on c = 2*i*STRIDE and a baby
# entry j in [1, STRIDE] matches either sign, so the window is [c - STRIDE,
# c + STRIDE]; at BOUND24 the last of the 512 windows is centered on 2**24.
LAST = 512


def _expect_rmap(M, m, bound):
    """rmap(M, bound) returns m when m lies in [0, bound], else NotFound."""
    if 0 <= m <= bound:
        assert rmap(M, bound) == m
    else:
        with pytest.raises(NotFound):
            rmap(M, bound)


@pytest.mark.parametrize("i", [1, 31, 32, 33, LAST])
@pytest.mark.parametrize("j", [0, 1, STRIDE - 1, STRIDE])
@pytest.mark.parametrize("sign", [1, -1], ids=["+j", "-j"])
def test_rmap_negation_map_window_edges(curve, i, j, sign):
    # j = 0 is the window's center, where the step lands on the identity;
    # the last window is centered on 2**24, just past the bound, so there
    # only the m <= bound checks reject the center and every +j
    m = 2 * i * STRIDE + sign * j
    _expect_rmap(mul_binary(m, curve.G), m, BOUND24)


@pytest.mark.parametrize("i", [1, 16, 32, 33, LAST - 1, LAST])
def test_rmap_window_center_both_signs(curve, i):
    # M and -M share the giant point's x: +c*G is c (when in range), while
    # -c*G is the giant point itself, whose log lies far above the bound
    c = 2 * i * STRIDE
    _expect_rmap(mul_binary(c, curve.G), c, BOUND24)
    with pytest.raises(NotFound):
        rmap(mul_binary(curve.order_n - c, curve.G), BOUND24)


# The walk pairs the windows about the middle one, centred on H =
# 256*2*STRIDE = 2**23: pair k reaches H + 2k*STRIDE and H - 2k*STRIDE, pair
# 256 only the plus side (2**24, the last window) and pair 255 the lowest
# minus one (2*STRIDE, the first giant window).  The pairs run inward in
# batches of 32, 256..225 first and 32..1 last.
H = LAST // 2 * 2 * STRIDE


@pytest.mark.parametrize("k", [1, 31, 32, 33, "last"])
@pytest.mark.parametrize("side", [1, -1], ids=["plus", "minus"])
def test_rmap_centred_walk_window_edges(curve, k, side):
    # pairs 32 and 33 sit on either side of the last batch edge; every
    # centre, its neighbours and its window's edges on both sides
    if k == "last":
        k = LAST // 2 if side == 1 else LAST // 2 - 1
    centre = H + side * k * 2 * STRIDE
    for d in (0, 1, STRIDE - 1, STRIDE):
        for m in (centre + d, centre - d):
            _expect_rmap(mul_binary(m, curve.G), m, BOUND24)


@pytest.mark.parametrize("bound", [0, 1, STRIDE - 1, STRIDE, STRIDE + 1, 1000, 4096, BOUND24])
def test_rmap_fresh_curve_bounds(bound):
    # a fresh curve builds the table for this bound's own stride: bound and
    # every window edge below it are found, bound + 1 and the far end of the
    # last window are not
    c = builtin_curve()
    G = c.G
    assert rmap(mul_binary(bound, G), bound) == bound
    stride, babies, _, gxs, gys = c._rmap_cache
    steps = (bound + stride) // (2 * stride)
    # the walk reads the giant entries 1 .. ceil(steps/2), and only they are built
    assert len(babies) == stride and len(gxs) == len(gys) == (steps + 1) // 2
    reach = 2 * steps * stride + stride
    assert reach > bound
    for m in (bound + 1, reach):
        with pytest.raises(NotFound):
            rmap(mul_binary(m, G), bound)
    if bound <= 1000:
        checked = range(bound + 1)
    elif bound <= STRIDE + 1:
        edges = {2 * i * stride + d for i in range(steps + 1)
                 for d in (-stride, 1 - stride, -1, 0, 1, stride - 1, stride)}
        checked = sorted(m for m in edges if m >= 0)
    else:
        checked = (0, 1, stride, stride + 1, bound - stride, bound - 1)
    for m in checked:
        _expect_rmap(mul_binary(m, G), m, bound)


def test_rmap_random_at_default_bound(curve):
    rng = random.Random(0x9E6)
    for _ in range(300):
        m = rng.randrange(BOUND24 + 1)
        assert rmap(mul_binary(m, curve.G), BOUND24) == m


def _oracle_multiples(curve, step, count):
    """k*step for k = 1..count as oracle tuples, by textbook affine
    additions."""
    p, a = o_of(curve)
    acc, s = None, as_tuple(step)
    out = []
    for _ in range(count):
        acc = o_add(acc, s, p, a)
        out.append(acc)
    return out


def _oracle_neg_multiple(curve, k):
    p, a = o_of(curve)
    x, y = o_mul(k, as_tuple(curve.G), p, a)
    return AffinePoint(curve, x, -y % p)


def test_search_tables_match_oracle_at_bound_1000():
    c = builtin_curve()
    stride, babies, anchors, gxs, gys = bsgs_cache(c, 1000)
    assert stride == 512
    expected = _oracle_multiples(c, c.G, 2 * stride)
    # each baby maps j*G's x to j, and nothing else
    assert babies == {x: j for j, (x, _) in enumerate(expected[:stride], 1)}
    # the anchors: the 256 offsets and the one centre 513*G, both with y
    assert [list(zip(*anchors[:2])), list(zip(*anchors[2:]))] == [expected[:256], [expected[512]]]
    # 1 giant step, and its one point stored
    assert list(zip(gxs, gys)) == [as_tuple(_oracle_neg_multiple(c, 2 * stride))]


def test_giant_lists_match_oracle_across_blocks():
    # at 2**25 - 1, twice the default bound, the 1024 giant steps store
    # 512 points: the 256 offsets and one centre reaching 257..512
    c = builtin_curve()
    stride, _, _, gxs, gys = bsgs_cache(c, (1 << 25) - 1)
    assert stride == STRIDE
    expected = _oracle_multiples(c, _oracle_neg_multiple(c, 2 * STRIDE), LAST)
    assert list(zip(gxs, gys)) == expected


@pytest.mark.parametrize("count", [1, 2, 100, 255, 256, 257, 600])
def test_chain_matches_oracle(curve, count):
    # below the 256 offsets, exactly them, and one or two centres, the last
    # one partial
    want = [(j, *T) for j, T in enumerate(_oracle_multiples(curve, curve.G, count), 1)]
    assert sorted(_multiples(curve.G, count)) == want


@pytest.mark.parametrize("count", MULTIPLES_COUNTS)
@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2"])
def test_multiples_match_oracle_on_tiny_curves(name, count, request):
    check_multiples(request.getfixturevalue(name), count)


# The sign of a baby hit at stride 2048 on the tiny curves: the 256
# offsets, the centres 513, 1026, 1539 and the last, 2052, past the
# stride, each with every offset on either side that the stride holds;
# on secp160r1, SECP_BABY_LOGS at stride 2**14.
@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2"])
def test_baby_log_matches_oracle_on_tiny_curves(name, request):
    check_baby_log(request.getfixturevalue(name), 2048, range(1, 2049))


def test_baby_log_matches_oracle_on_secp160r1(curve):
    check_baby_log(curve, STRIDE, SECP_BABY_LOGS)


# sha256 of repr(sorted(babies.items())) and of repr((gxs, gys)) for the
# default bound on a fresh curve.  Both were derived from the tables the
# lane build and the +- build with y made, pinned as 097d70b8...2651c and
# f8854980...127ff: the first from sorted (x, v >> 1), dropping the parity
# bit each value v = j << 1 | (y & 1) carried, the second from the first
# 256 of the 512 giant points, the ones the walk reads
DEFAULT_TABLE_DIGESTS = (
    "baba245f2f429369f29c1e3d01434c8418de210cba7be51635cbac0fa7a54789",
    "8e9ec3c4d8b1f20f75fc1df57d4a2520a1361a2d492ea7300f953ca52570208a",
)


def test_default_search_tables_match_pinned_digests():
    stride, babies, _, gxs, gys = bsgs_cache(builtin_curve(), BOUND24)
    assert (stride, len(babies), len(gxs)) == (STRIDE, STRIDE, LAST // 2)
    digests = tuple(hashlib.sha256(repr(t).encode()).hexdigest()
                    for t in (sorted(babies.items()), (gxs, gys)))
    assert digests == DEFAULT_TABLE_DIGESTS


# What a cold build of the default bound's tables allocates beyond the
# tables it keeps (tracemalloc's peak less what is still allocated after
# the build, 1,941,264 bytes with the anchors and half the giant points,
# 1,955,304 before): 22,792 bytes for the x-only build, 28,160 for the
# +- build that made every y, 40,372 for the lane build before it, which
# is the bound.
BUILD_MARGIN_BYTES = 40_372


def test_cold_default_build_holds_little_beyond_its_tables():
    c = builtin_curve()
    gc.collect()
    tracemalloc.start()
    try:
        bsgs_cache(c, BOUND24)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept > 1_900_000
    assert peak - kept <= BUILD_MARGIN_BYTES


# --- encryption ---------------------------------------------------------------------------

def test_encrypt_decrypt_roundtrip(curve, keys, rng):
    for _ in range(25):
        m = rng.randrange(1 << 16)
        ct = encrypt(keys.public_Y, m, rng)
        assert decrypt(keys.secret_x, ct, (1 << 16) - 1) == m
    # a ciphertext is the plain pair (R, S) of Jacobian points, whichever
    # operation made it
    for made in (ct, ct_add(ct, ct), ct_identity(curve), ct_from_bytes(ct_to_bytes(ct), curve)):
        assert type(made) is tuple and len(made) == 2, made
        assert all(type(P) is JacobianPoint for P in made), made


@pytest.mark.parametrize("m, max_bits", [(0, 24), (1, 24), (2**24 - 1, 24)])
def test_shamir_edges_round_trip(curve, keys, m, max_bits):
    # S = k*Y + m*G in one chain: the stripped mask must leave exactly m*G
    # by binary multiplication, whether m's row is empty, one digit, or
    # as long as the message bound allows; the reader searches max_bits
    ct = ct_from_bytes(ct_to_bytes(encrypt(keys.public_Y, m, random.Random(m))), curve)
    R, S = ct
    xR = mul_binary(keys.secret_x, to_affine(R))
    M = ec_add_jjj(S, lift(ec_neg(to_affine(xR))))
    assert ec_eq(M, mul_binary(m, curve.G))
    assert decrypt(keys.secret_x, ct, (1 << max_bits) - 1) == m


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "secp160r1"])
def test_encrypt_shares_one_recoding_of_k(tiny, tiny_curve, monkeypatch):
    # R and S are, to the Jacobian coordinate, the two interleaved
    # multiplications k*G and k*Y + m*G, for m with no terms, one digit, a
    # byte, and terms past the first track and past secp160r1's 10-step
    # chain; and each chain recodes k once, whole, with no split into
    # tracks, S's chain a nonzero m once more
    recoded = []
    recode = scalarmul.wmof_recode

    def counted(k, w):
        recoded.append(k)
        return recode(k, w)

    monkeypatch.setattr(scalarmul, "wmof_recode", counted)
    c = tiny_curve if tiny else builtin_curve()
    rng = random.Random(c.order_n)
    Y = keygen(rng, c).public_Y
    g_table, y_table = default_table(c), fixed_base_table(Y)
    for m in (0, 1, 255, 2**9, 2**20, 2**24 - 1):
        k = rng.randrange(1, c.order_n)
        recoded.clear()
        ct = encrypt(Y, m, ForcedK(k))
        assert recoded == [k, k] + [m] * (m > 0), m
        R, S = mul_interleave(k, g_table), mul_interleave(k, y_table, m)
        ctR, ctS = ct
        assert (ctR.X, ctR.Y, ctR.Z) == (R.X, R.Y, R.Z), m
        assert (ctS.X, ctS.Y, ctS.Z) == (S.X, S.Y, S.Z), m
        assert ec_eq(S, ec_add_jjj(mul_binary(k, Y), mul_binary(m, c.G))), m


@pytest.mark.parametrize("name", ["tiny13", "tiny13a2"])
def test_encrypt_decrypt_on_curves_narrower_than_the_shape(name):
    # 13 bits, fewer than FIXED_BASE_SHAPE has tracks: keygen and encrypt
    # run over tables of one track per bit, and every sum comes back
    c = make_tiny(TINY if name == "tiny13" else TINY_A2, name)
    rng = random.Random(13)
    keys = keygen(rng, c)
    assert default_table(c).t == fixed_base_table(keys.public_Y).t == 13
    ms = (0, 1, 200, 799)
    cts = [encrypt(keys.public_Y, m, rng) for m in ms]
    for m, ct in zip(ms, cts):
        assert decrypt(keys.secret_x, ct, 1000) == m
    total = ct_identity(c)
    for ct in cts:
        total = ct_add(total, ct)
    assert decrypt(keys.secret_x, ct_from_bytes(ct_to_bytes(total), c), 1000) == 1000


def test_encrypt_keeps_no_recoding_of_k():
    # S - k*Y = m*G: whoever holds k reads m, so nothing on encrypt's path
    # may outlive the call holding k; no function of the multipliers or the
    # scheme is memoized (functools caches carry cache_info)
    memoized = [f"{module.__name__}.{name}" for module in (scalarmul, elgamal)
                for name, value in vars(module).items() if hasattr(value, "cache_info")]
    assert memoized == []


def test_hostile_keys_and_randomizers_round_trip():
    # keys and randomizers at both ends of [1, n-1], messages at both ends
    # of the bound: every byte round trip decrypts to m.  A fresh curve, so
    # the shared one keeps its tables
    c = builtin_curve()
    n = c.order_n
    for x in (1, 2, n - 2, n - 1):
        Y = keygen(ForcedK(x), c).public_Y
        for k in (1, 2, n - 2, n - 1):
            for m in (0, 1, 2, 255, 2**24 - 1):
                data = ct_to_bytes(encrypt(Y, m, ForcedK(k)))
                assert decrypt(x, ct_from_bytes(data, c), 2**24 - 1) == m, (x, k, m)


def test_hostile_key_masks_to_identity():
    # x = n-1 makes Y = -G, so k = 1 and m = 1 give S = -G + G: the identity,
    # one tag byte on the wire
    c = builtin_curve()
    x = c.order_n - 1
    Y = keygen(ForcedK(x), c).public_Y
    data = ct_to_bytes(encrypt(Y, 1, ForcedK(1)))
    assert len(data) == 42 and data[41:] == b"\x00"
    assert decrypt(x, ct_from_bytes(data, c), 2**24 - 1) == 1


def test_unit_key_and_randomizer_take_the_equal_point_branch():
    # x = 1 makes Y = G, so S = 1*Y + 1*G adds G to itself within the scan
    c = builtin_curve()
    Y = keygen(ForcedK(1), c).public_Y
    with tally() as ops:
        ct = encrypt(Y, 1, ForcedK(1))
    assert [getattr(ops, f) for f in FIELDS] == [0, 1, 12, 0]
    _, S = ct
    assert ec_eq(S, mul_binary(2, c.G))
    assert decrypt(1, ct, 10) == 1


def test_hostile_aggregates_on_the_wire(curve, keys, rng):
    m = 1000 + rng.randrange(1 << 16)
    data = ct_to_bytes(encrypt(keys.public_Y, m, rng))
    ct = ct_from_bytes(data, curve)
    # folded with its own bytes: four point decodes at 3 multiplies, then
    # ct_add finds both components equal at Z = 1 for free and doubles
    # each at 8
    with tally() as ops:
        twice = ct_add(ct_from_bytes(data, curve), ct_from_bytes(data, curve))
    assert [getattr(ops, f) for f in FIELDS] == [0, 2, 28, 0]
    assert decrypt(keys.secret_x, twice, 2**24 - 1) == 2 * m
    # folded with its mirror: both components cancel to the identity
    R, S = ct
    mirror = (lift(ec_neg(to_affine(R))), lift(ec_neg(to_affine(S))))
    cancelled = ct_to_bytes(ct_add(ct, mirror))
    assert cancelled == b"\x00\x00"
    assert decrypt(keys.secret_x, ct_from_bytes(cancelled, curve), 2**24 - 1) == 0
    # the mirror alone hides -m, which no search bound reaches
    with pytest.raises(NotFound):
        decrypt(keys.secret_x, mirror, 2**24 - 1)


def test_alternating_keys_keep_two_tables(tmp_path):
    # one key from this process's keygen, the other read back from a .pub
    # file (its own curve object) and also placed on the first key's curve,
    # which then keeps both keys' tables: each is built once, and after the
    # first round every encryption is its two 20-doubling chains alone (a
    # table build is 148 more)
    curve = builtin_curve()
    mine = keygen(random.Random(21), curve)
    theirs = keygen(random.Random(22), builtin_curve())
    pub, _ = save_keypair(theirs, tmp_path / "other")
    loaded = load_public_key(pub)
    assert loaded.curve is not curve
    rehomed = AffinePoint(curve, loaded.x, loaded.y)
    rng = random.Random(23)
    built = {}
    for first_round in (True, False):
        for Y, x in ((mine.public_Y, mine.secret_x), (loaded, theirs.secret_x),
                     (rehomed, theirs.secret_x)):
            m = rng.randrange(1000)
            with tally() as ops:
                ct = encrypt(Y, m, rng)
            assert decrypt(x, ct, 1000) == m
            assert first_round or ops.ecdbl <= 40
            # loaded and rehomed are equal points on two curves; a table's
            # tracks are the same object on every call, so built once
            tracks = fixed_base_table(Y).signed
            assert built.setdefault((Y.curve, Y), tracks) is tracks
    G, Y = curve.G, mine.public_Y
    assert curve._tables.keys() == {(G.x, G.y), (Y.x, Y.y), (rehomed.x, rehomed.y)}
    G = loaded.curve.G
    assert loaded.curve._tables.keys() == {(G.x, G.y), (loaded.x, loaded.y)}


def test_ct_to_bytes_shares_one_inversion(curve, keys, rng):
    # the batch normalization writes the bytes one inversion per point would
    def each(c):
        R, S = c
        return point_to_bytes(to_affine(R)) + point_to_bytes(to_affine(S))

    fresh = encrypt(keys.public_Y, 5, rng)
    fresh_R, fresh_S = fresh
    cases = [fresh, ct_from_bytes(ct_to_bytes(fresh), curve), ct_identity(curve),
             (JacobianPoint.infinity(curve), fresh_S),
             (fresh_R, lift(curve.G))]
    for c, invs in zip(cases, (1, 0, 0, 1, 1)):
        with tally() as ops:
            data = ct_to_bytes(c)
        assert data == each(c) and ops.fe_inv == invs


@pytest.mark.parametrize("name", ["tiny_curve", "tiny_curve_a2", "curve"])
def test_ct_to_bytes_over_z_classes(name, request):
    # all nine (Z_R, Z_S) classes among 0, 1 and another Z, byte-equal to
    # each component encoded on its own
    check_ct_to_bytes_over_z_classes(request.getfixturevalue(name), random.Random(name))


def test_encrypt_zero(curve, keys, rng):
    ct = encrypt(keys.public_Y, 0, rng)
    assert decrypt(keys.secret_x, ct, 100) == 0


def test_encrypt_randomized(curve, keys):
    from ecagg.curve import point_to_bytes
    rng = random.Random(7)
    r_values = set()
    pairs = set()
    for _ in range(100):
        ct = encrypt(keys.public_Y, 42, rng)
        R, _ = ct
        r_values.add(point_to_bytes(to_affine(R)))
        pairs.add(ct_to_bytes(ct))
    assert len(r_values) == 100
    assert len(pairs) == 100


def test_encrypt_forced_unit_k(curve, keys):
    R, S = encrypt(keys.public_Y, 9, ForcedK(1))
    assert ec_eq(R, lift(curve.G))
    expected_S = ec_add_jjj(map_message(9, curve), lift(keys.public_Y))
    assert ec_eq(S, expected_S)


def test_encrypt_rejects_oversized(curve, keys, rng):
    with pytest.raises(MessageTooLarge):
        encrypt(keys.public_Y, 1 << 24, rng)


def test_decrypt_wrong_key_not_found(curve, keys, rng):
    wrong = keygen(random.Random(1234), curve)
    assert wrong.secret_x != keys.secret_x
    for _ in range(5):
        ct = encrypt(keys.public_Y, rng.randrange(1 << 16), rng)
        with pytest.raises(NotFound):
            decrypt(wrong.secret_x, ct, (1 << 16) - 1)


# --- homomorphic addition -------------------------------------------------------------------

def test_ct_add_with_zero(curve, keys, rng):
    c = encrypt(keys.public_Y, 77, rng)
    z = encrypt(keys.public_Y, 0, rng)
    assert decrypt(keys.secret_x, ct_add(c, z), 1000) == 77


def test_ct_add_demo_values(curve, keys, rng):
    # the shipped demo readings: 15 + 16 + 18 + 14 = 63
    total = None
    for m in (15, 16, 18, 14):
        ct = encrypt(keys.public_Y, m, rng)
        total = ct if total is None else ct_add(total, ct)
    assert decrypt(keys.secret_x, total, 1000) == 63


def test_ct_add_commutative(curve, keys, rng):
    c1 = encrypt(keys.public_Y, 3, rng)
    c2 = encrypt(keys.public_Y, 4, rng)
    lhs_R, lhs_S = ct_add(c1, c2)
    rhs_R, rhs_S = ct_add(c2, c1)
    assert ec_eq(lhs_R, rhs_R)
    assert ec_eq(lhs_S, rhs_S)


def test_ct_identity_decrypts_to_zero(curve, keys):
    assert decrypt(keys.secret_x, ct_identity(curve), 10) == 0


def test_fold_every_length_to_16(curve, keys, rng):
    for j in range(1, 17):
        messages = [rng.randrange(256) for _ in range(j)]
        total = ct_identity(curve)
        for m in messages:
            total = ct_add(total, encrypt(keys.public_Y, m, rng))
        assert decrypt(keys.secret_x, total, (1 << 16) - 1) == sum(messages)


def test_mask_cancellation_identity(curve, rng):
    # -x(kG) + (mG + k(xG)) = mG, element by element
    from ecagg.curve import ec_add_ajj, ec_add_jjj, ec_neg
    for _ in range(10):
        x = rng.randrange(1, curve.order_n)
        k = rng.randrange(1, curve.order_n)
        m = rng.randrange(1 << 12)
        Y = to_affine(mul_binary(x, curve.G))
        S = ec_add_jjj(map_message(m, curve), mul_binary(k, Y))
        xR = mul_binary(x, to_affine(mul_binary(k, curve.G)))
        M = ec_add_ajj(ec_neg(to_affine(xR)), S)
        assert ec_eq(M, map_message(m, curve))


# --- serialization ----------------------------------------------------------------------------

def test_ct_bytes_roundtrip(curve, keys, rng):
    for _ in range(20):
        ct = encrypt(keys.public_Y, rng.randrange(1 << 12), rng)
        data = ct_to_bytes(ct)
        assert len(data) == 82
        back = ct_from_bytes(data, curve)
        assert ct_to_bytes(back) == data


@pytest.mark.parametrize("name", ["secp160r1", "tiny13", "small7"])
def test_wire_codec_matches_two_field_codec(name):
    # the codec reads and writes x || y as one integer split at 8 *
    # byte_length bits, which is wider than the field on tiny13 (13 bits in
    # 2 bytes) and small7 (7 bits in 1): checked against wire_encode and
    # wire_decode, which handle each coordinate on its own.  Ciphertexts
    # with each component the identity, at Z = 1 or at another Z, and then
    # every point whose x and y are each a valid coordinate, that plus p or
    # plus 2**n, p itself or the widest value the bytes hold, at two
    # positions, refused with the same class and message or decoded alike
    c = builtin_curve() if name == "secp160r1" else make_tiny(
        {"tiny13": TINY, "small7": SMALL7}[name], name)
    rng = random.Random(name)
    p, n, blen = c.field.p, c.field.n, c.field.byte_length
    points = [None, *oracle_points(c, 3, rng)]

    def as_decoded(Q):
        assert Q.Z == (not Q.is_infinity)
        return None if Q.is_infinity else (Q.X, Q.Y)

    def decoded(data, pos):
        try:
            Q, end = decode_point(data, pos, c)
        except (BadEncoding, OffCurvePoint) as e:
            return type(e), str(e)
        return as_decoded(Q), end

    for TR, TS in product(points, repeat=2):
        assert point_to_bytes(as_point(TR, c)) == wire_encode(TR, c)
        for zr, zs in ((1, 1), (rng.randrange(2, p), rng.randrange(2, p))):
            data = ct_to_bytes((at_z(TR, c, zr), at_z(TS, c, zs)))
            assert data == wire_encode(TR, c) + wire_encode(TS, c)
            back_R, back_S = ct_from_bytes(data, c)
            assert [as_decoded(back_R), as_decoded(back_S)] == [TR, TS]
    x, y = points[1]
    top = (1 << 8 * blen) - 1
    xs = {v for v in (x, x + p, x + (1 << n), p, top) if v <= top}
    ys = {v for v in (y, y + p, y + (1 << n), (y + 1) % p, p, top) if v <= top}
    refused = set()
    for X, Y in product(sorted(xs), sorted(ys)):
        raw = bytes([0x04]) + X.to_bytes(blen, "big") + Y.to_bytes(blen, "big")
        want = wire_decode(raw, 0, c)
        assert decoded(raw, 0) == want, (X, Y)
        shifted = b"\x00" + raw + b"\x00"
        assert decoded(shifted, 1) == wire_decode(shifted, 1, c), (X, Y)
        if want[0] in (BadEncoding, OffCurvePoint):
            refused.add(want[1])
            with pytest.raises(want[0], match=want[1]):
                ct_from_bytes(raw + wire_encode(points[2], c), c)
    assert refused == {"coordinate not below p", "coordinates fail the curve equation"}
    valid = wire_encode(points[1], c)
    for data in [b"", b"\x02", b"\x05", *(valid[:k] for k in range(1, len(valid)))]:
        assert decoded(data, 0) == wire_decode(data, 0, c), data


def test_ct_identity_component_length(curve, keys):
    # R is the identity when k*G collapses; forced here by a crafted pair
    from ecagg.curve import JacobianPoint
    ct = (JacobianPoint.infinity(curve), lift(curve.G))
    data = ct_to_bytes(ct)
    assert data[0] == 0x00
    assert len(data) == 42
    back_R, _ = ct_from_bytes(data, curve)
    assert back_R.is_infinity


def test_ct_tampered_rejected(curve, keys, rng):
    data = bytearray(ct_to_bytes(encrypt(keys.public_Y, 5, rng)))
    data[3] ^= 0x40
    with pytest.raises(OffCurvePoint):
        ct_from_bytes(bytes(data), curve)


@pytest.mark.parametrize("component", ["R", "S"])
def test_ct_x_equal_to_p_rejected(curve, component):
    # x = p with y = sqrt(b), on the curve once x is reduced mod p, in
    # either component of an otherwise valid ciphertext
    bad, good = x_equal_p_bytes(curve), point_to_bytes(curve.G)
    data = bad + good if component == "R" else good + bad
    with pytest.raises(OffCurvePoint, match="not below p"):
        ct_from_bytes(data, curve)


def test_ct_trailing_rejected(curve, keys, rng):
    data = ct_to_bytes(encrypt(keys.public_Y, 5, rng))
    with pytest.raises(BadEncoding):
        ct_from_bytes(data + b"\x01", curve)
    with pytest.raises(BadEncoding):
        ct_from_bytes(data[:50], curve)


# --- key files ---------------------------------------------------------------------------------

def test_key_files_roundtrip(curve, keys, tmp_path):
    prefix = tmp_path / "node1"
    pub, sec = save_keypair(keys, prefix)
    Y = load_public_key(pub)
    assert Y == keys.public_Y
    x, loaded_curve = load_secret_key(sec)
    assert x == keys.secret_x
    assert loaded_curve.name == curve.name


def test_key_file_unknown_curve(tmp_path):
    path = tmp_path / "bad.pub"
    path.write_text("curve = nosuch\nyx = 01\nyy = 02\n")
    with pytest.raises(BadConfig):
        load_public_key(path)


def test_key_file_off_curve_point(curve, keys, tmp_path):
    y_bad = (keys.public_Y.y + 1) % curve.field.p
    bad = tmp_path / "bad.pub"
    bad.write_text(
        f"curve = {curve.name}\n"
        f"yx = {keys.public_Y.x:040x}\n"
        f"yy = {y_bad:040x}\n")
    with pytest.raises(BadConfig):
        load_public_key(bad)


def test_key_file_negative_coordinate(curve, tmp_path):
    # -(p - gx) is congruent to gx, so only the range check can refuse it
    p = curve.field.p
    bad = tmp_path / "neg.pub"
    bad.write_text(f"curve = {curve.name}\nyx = -{p - curve.G.x:x}\nyy = {curve.G.y:x}\n")
    with pytest.raises(BadConfig):
        load_public_key(bad)


@pytest.mark.parametrize("kind", ["path", "nul", "not_utf8"])
def test_key_file_curve_name_must_be_shipped(tmp_path, kind):
    data_dir = Path(ecagg.__file__).parent / "data"
    (tmp_path / "my.curve").write_text((data_dir / "secp160r1.curve").read_text())
    names = {"path": os.path.relpath(tmp_path / "my", data_dir).encode(),
             "nul": b"a\0b",
             "not_utf8": b"secp160r1\xff"}
    sec = tmp_path / "k.sec"
    sec.write_bytes(b"curve = " + names[kind] + b"\nx = 05\n")
    with pytest.raises(BadConfig):
        load_secret_key(sec)


KEY_FILE_FAULTS = {
    "no_equals": (b"curve secp160r1\nyx = 01\nyy = 02\n", b"curve secp160r1\nx = 05\n"),
    "empty_key": (b"curve = secp160r1\n= 01\nyx = 01\nyy = 02\n",
                  b"curve = secp160r1\n= 05\nx = 05\n"),
    "duplicate_key": (b"curve = secp160r1\nyx = 01\nYX = 01\nyy = 02\n",
                      b"curve = secp160r1\nx = 05\nx = 06\n"),
    "missing_field": (b"curve = secp160r1\nyx = 01\n", b"curve = secp160r1\n"),
    "bad_hex": (b"curve = secp160r1\nyx = zz\nyy = 02\n", b"curve = secp160r1\nx = 0g\n"),
    "not_utf8": (b"curve = secp160r1\nyx = 01\nyy = 02\xff\n", b"curve = secp160r1\nx = 05\xff\n"),
    # the file is refused whole, not read past a bad byte the parser would skip
    "not_utf8_comment": (b"curve = secp160r1\nyx = 01\nyy = 02\n# \xff\n",
                         b"curve = secp160r1\nx = 05\n# \xff\n"),
    "missing_file": (None, None),
}


@pytest.mark.parametrize("suffix", ["pub", "sec"])
@pytest.mark.parametrize("fault", KEY_FILE_FAULTS)
def test_malformed_key_file_rejected_before_curve_work(tmp_path, fault, suffix):
    # the fields are read and checked before the named curve is built and
    # validated (160 ECDBL and 1,771 fe_mul for secp160r1)
    content = KEY_FILE_FAULTS[fault][suffix == "sec"]
    path = tmp_path / f"k.{suffix}"
    if content is not None:
        path.write_bytes(content)
    load = load_public_key if suffix == "pub" else load_secret_key
    with tally() as t, pytest.raises(BadConfig):
        load(path)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]
