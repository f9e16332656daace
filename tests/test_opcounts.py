"""Exact operation counts: the paper's hardware-free cost metric.

Every tuple is (ECADD, ECDBL, field multiplications, inversions) counted on
secp160r1.  The values were taken from the implementation that routed each
multiply and square through mod_mul, so any rewrite of the group law has to
keep its per-formula tallies exact to pass.  The decrypt and BSGS-build
values were taken again when the reader's search began sharing inversions,
the decrypt once more when normalizing an affine R became free, and both
again when the search began matching +-j in the baby table (giant steps of
twice the stride) and decrypt stopped normalizing x*R, and the build once
more when the tables came to be built by lane-batched affine additions, and
again when each inversion of that build came to serve a +- pair of sums, and
the decrypt value once more when the giant steps came to walk in +- pairs of
windows about the middle of the range, inward from both ends, each inverse
serving both windows of a pair, and both the decrypt and the build once
more when the baby table came to store x -> j alone, a hit's sign told
by the build's offsets and centres, and the giant table only the half of
the giant points the walk reads; the decrypt value again when x*(-R)
moved to width 4 over Jacobian odd multiples.  The
encrypt value was taken again when k*Y moved onto a (4,4) public-key table
with m*G folded into its chain, once more when both tables became
(8,4) and one recoding of k came to serve both chains, and again when they
became (16,4), (16,5) and (16,6); the wide-reading values were first taken
when m's terms came to be dealt over the generator's tracks as k's are
over Y's, and again at (16,6).  The fold value was taken again when serializing began
sharing one inversion between R and S, and again when ec_add_jjj began
taking mixed additions for operands at Z = 1.  The table build and import values
were taken when building stopped re-deriving its points by binary
multiplication, and import began comparing against a local build; the
import value once more when table files came to store only their base,
and both when one inversion came to normalize every track's odd
multiples; the fixed-base shape's build again when it became (16,5), and
both builds again when each track's 2P came from the shifted-base chain,
normalized with the bases, and the shape became (16,6).
"""

import random

import pytest

from ecagg.aggsim import fold
from ecagg.counters import counters
from ecagg.curve import (
    AffinePoint,
    JacobianPoint,
    builtin_curve,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    ec_neg,
    lift,
    to_affine,
)
from ecagg.elgamal import (
    bsgs_cache,
    ct_from_bytes,
    ct_to_bytes,
    decrypt,
    encrypt,
    keygen,
    map_message,
    rmap,
)
from ecagg.errors import BadEncoding, NotFound, OffCurvePoint
from ecagg.scalarmul import (
    FIXED_BASE_SHAPE,
    build_table,
    default_table,
    mul_binary,
    table_from_bytes,
    table_to_bytes,
)

BOUND = (1 << 24) - 1


def tally(fn, *args):
    """fn(*args) and the (ecadd, ecdbl, fe_mul, fe_inv) it added."""
    c = counters()
    before = (c.ecadd, c.ecdbl, c.fe_mul, c.fe_inv)
    out = fn(*args)
    return out, tuple(a - b for a, b in zip((c.ecadd, c.ecdbl, c.fe_mul, c.fe_inv), before))


@pytest.fixture(scope="module")
def keys(curve):
    # warm the lazy default table and BSGS cache so only per-call work counts
    default_table(curve)
    rmap(map_message(1, curve), BOUND)
    return keygen(random.Random(0x5EED), curve)


def test_encrypt_counts(keys):
    # k*G and k*Y + 200*G over the (16,6) tables that the default table and
    # keygen built beforehand.  This 160-bit k recodes at width 6 to 25
    # terms, the top one 3*2**158, dealt into sixteen rows of 10 positions;
    # the highest offset any of them reaches is 9, held by two terms, at
    # positions 19 (row 1) and 139 (row 13).  200 recodes to 25*2**3, one
    # term at offset 3.  So each chain runs 10 positions and doubles 9
    # times (its first doubling, of the identity, is free), and each scan's
    # first addition, at offset 9, lands on the identity, free.  ECADD 24 +
    # 25 = 49, ECDBL 2*9 = 18, 11 multiplies a mixed addition and 8 a
    # doubling: 49*11 + 18*8 = 683
    _, ops = tally(encrypt, keys.public_Y, 200, random.Random(7))
    assert ops == (49, 18, 683, 0)


@pytest.mark.parametrize("m, ops", [(0xBEEF, (51, 18, 705, 0)), (0xABCDEF, (52, 18, 716, 0))],
                         ids=["16-bit", "24-bit"])
def test_wide_reading_encrypt_counts(keys, m, ops):
    # test_encrypt_counts' k with a 16-bit and a 24-bit reading, whose
    # terms are dealt over the sixteen 10-position tracks of G's table as
    # k's are over Y's.  0xBEEF recodes to -17 - 2**8 + 3*2**14, at offsets
    # 0 and 8 of track 0 and 4 of track 1; 0xABCDEF to -17 - 25*2**9 -
    # 21*2**18 + 2**24, at offsets 0 and 9 of track 0, 8 of track 1 and 4
    # of track 2.  No term passes k's top offset 9, so each chain still
    # doubles 9 times, and each term of m beyond 200's one is one mixed
    # addition more: ECADD 49 + 2 = 51 and 49 + 3 = 52, and 51*11 + 18*8 =
    # 705, 52*11 + 18*8 = 716
    assert tally(encrypt, keys.public_Y, m, random.Random(7))[1] == ops


def test_encrypt_after_keygen_repeats_its_counts():
    # perfbench's set-up on a fresh curve (keygen, then the default table)
    # leaves nothing for the first encrypt to build, so the first and
    # second calls with the same draws count the same.  k < n < 2**160 +
    # 2**81 recodes to terms no higher than position 160, offset 10 of its
    # last row, and 77 is shorter still: each of the two chains doubles at
    # most 10 times
    curve = builtin_curve()
    kp = keygen(random.Random(0x5EE0), curve)
    default_table(curve)
    first = tally(encrypt, kp.public_Y, 77, random.Random(3))[1]
    assert tally(encrypt, kp.public_Y, 77, random.Random(3))[1] == first
    assert first[1] <= 20 and first[3] == 0


def test_fold_and_serialize_counts(keys, curve):
    rng = random.Random(11)
    wire = [ct_to_bytes(encrypt(keys.public_Y, m, rng)) for m in (15, 16, 18, 14)]
    root, ops = tally(fold, wire, curve)
    # 8 decodes at 3 multiplies (24); per component, the first child lands
    # on the identity, free, the second meets it at Z = 1 (mmadd, 6) and
    # the third and fourth add at Z = 1 into the sum (madd, 11 each), 56 in
    # all; 2 normalizations at 4 multiplies sharing 1 inversion (3
    # multiplies): 24 + 56 + 11 = 91
    assert ops == (6, 0, 91, 1)
    assert decrypt(keys.secret_x, ct_from_bytes(root, curve), 1000) == 63


@pytest.mark.parametrize("bad, error, ops", [("truncated", BadEncoding, (0, 0, 21, 0)),
                                             ("off-curve", OffCurvePoint, (0, 0, 24, 0))])
def test_fold_refuses_a_bad_child_before_any_addition(keys, curve, bad, error, ops):
    # test_fold_and_serialize_counts' hop with its fourth child's last byte
    # cut or flipped: the three good children decode at 6 multiplies each
    # and the fourth's R at 3, and a flipped S meets the curve equation's 3
    # more before it fails.  Every child is decoded before the first
    # addition, so the hop is refused with no ECADD spent
    rng = random.Random(11)
    wire = [ct_to_bytes(encrypt(keys.public_Y, m, rng)) for m in (15, 16, 18, 14)]
    last = wire[3]
    wire[3] = last[:-1] if bad == "truncated" else last[:-1] + bytes([last[-1] ^ 1])
    c = counters()
    before = (c.ecadd, c.ecdbl, c.fe_mul, c.fe_inv)
    with pytest.raises(error):
        fold(wire, curve)
    assert tuple(a - b for a, b in zip((c.ecadd, c.ecdbl, c.fe_mul, c.fe_inv), before)) == ops


def test_decrypt_counts(keys, curve):
    rng = random.Random(11)
    ct = ct_from_bytes(ct_to_bytes(encrypt(keys.public_Y, 0xABCDEF, rng)), curve)
    m, ops = tally(decrypt, keys.secret_x, ct, BOUND)
    assert m == 0xABCDEF
    # x*(-R) at width 4, old (55, 159, 1877, 0) at width 2: 2P by one
    # doubling, 3P by a mixed addition, 5P and 7P by add-2007-bl, and each
    # multiple's Z**2 and Z**3 cached (3 ECADD, 1 ECDBL, 8 + 11 + 2*16 +
    # 3*2 = 57 multiplies).  This x recodes to 160 digits, 34 nonzero, the
    # top one a 1 that lands on the identity, free: 159 doublings (1272
    # multiplies), and below it 9 digits +-1, each a mixed addition with R
    # (11), and 24 over a cached multiple (14): (36, 160, 57 + 1272 + 99 +
    # 336 = 1764, 0).  It stays Jacobian for the mixed addition with S (R
    # and S from the wire are affine, so normalizing them is free; 1 ECADD,
    # 11 multiplies).  Then the search, old (344, 0, 1716, 12) for 344 giant
    # steps in 11 batches.  The walk is centred on the middle of the 512
    # windows, h = 256*2**15 = 2**23: M' = M - h*G is one mixed addition
    # (1 ECADD, 11 multiplies), normalized with M for one inversion (3 + 2*4
    # = 11 multiplies).  0xABCDEF - h = 2,870,767 = 88*2**15 - 12817 is a
    # -j match in window h + 88*2**15, the plus side of pair 88.  Pairs run
    # inward from pair 256 (its plus window only) down to 89, both windows
    # each, then that one: 1 + 2*167 + 1 = 336 windows at 2 multiplies plus
    # 1 for its y3, in 6 batches of 32 inverses (6*93 multiplies, 6
    # inversions).  j = 12817 = 25*513 - 8 is centre 25*513 less offset 8,
    # whose sign costs the 2 multiplies of _baby_log's check.  Search:
    # (337, 0, 11 + 11 + 672 + 1 + 2 + 558 = 1255, 7), old 1253 when the
    # baby entry carried y's parity.  Old (393, 159, 3143, 7) at width 2
    assert ops == (374, 160, 3030, 7)


# A search table's multiples of its step start with 256 offsets from a
# ladder of 8 batches (n*step added to the lanes 1..n, the last of them a
# doubling): 247 additions, 8 doublings, 3*255 + 8 + 3*(255 - 8) = 1,514
# multiplies and 8 inversions.  Beyond 256 multiples, 513*step is 256*step
# doubled (4 multiplies, 1 inversion) plus step (3, 1), and the centres
# c*513*step come from a ladder over it.  A centre reaches the 512
# multiples around it with one batch of 256 inverses (3*255 = 765
# multiplies, 1 inversion), each shared by the sum and the difference of
# the centre and an offset at 3 multiplies each: 765 + 3*512 = 2,301 for a
# full centre, against 2*1,533 for the two blocks of 256 lanes that the
# lane build advanced per 512 points.  The baby table skips each sum's y3,
# 2 multiplies a sum: 765 + 2*512 = 1,789 for a full centre.


def test_bsgs_build_counts():
    # a fresh curve's one-off build for the default bound, old (16876, 33,
    # 101266, 81) and (16875, 38, 77553, 59) when the baby sums carried y and
    # all 512 giant points were built.  2**14 baby points: the offsets
    # (1,514 multiplies, 8 inversions), 513*G (7, 2), 32 centres by a ladder
    # of 5 batches of 1 to 16 lanes (26 additions, 5 doublings, 3*31 + 5 +
    # 3*26 = 176 multiplies, 5 inversions), 31 full centres (15,872 sums,
    # 31*1,789 = 55,459 multiplies, 31 inversions) and the last, 16,416*G,
    # reaching down to 16,160..16,384 only (225 sums, 3*224 + 2*225 = 1,122
    # multiplies, 1 inversion): 16,371 additions, 14 doublings, 58,278
    # multiplies and 47 inversions, 16,097 sums times 1 multiply fewer.
    # 2**15*G by 15 binary doublings and one normalization (124 multiplies,
    # 1 inversion).  256 of the 512 giant steps' points, -2**15*G to
    # -2**23*G, the ones the walk reads: the offsets alone (247 additions,
    # 8 doublings, 1,514 multiplies, 8 inversions), where all 512 took 513
    # times the step and a centre as well (504, 9, 3,054, 11)
    table, ops = tally(bsgs_cache, builtin_curve(), BOUND)
    assert ops == (16618, 37, 59916, 56)
    assert table[0] == 2**14 and len(table[1]) == 2**14
    assert [len(anchor) for anchor in table[2]] == [256, 256, 32, 32]
    assert len(table[3]) == len(table[4]) == 256


def test_bsgs_build_counts_small_bound():
    # bound 1000 takes stride 512, old (502, 19, 3132, 10), and (504, 19,
    # 3138, 12) when the baby sums carried y: 512 baby points, the offsets,
    # 513*G and one centre reaching down to 257..512 (504 additions, 9
    # doublings, 1,514 + 7 + 765 + 2*256 = 2,798 multiplies, 11 inversions:
    # 2 inversions more than the lane build, which advanced 256 lanes by
    # 256*G, for the two steps to 513*G); 1024*G by 10 binary doublings and
    # a normalization (84 multiplies, 1 inversion); and 1 giant step,
    # ceil(1/2) = 1 point, itself
    assert tally(bsgs_cache, builtin_curve(), 1000)[1] == (504, 19, 2882, 12)


def test_bsgs_extension_counts():
    # bound 2**20 - 1 takes 32 giant steps at stride 2**14 (the last window,
    # centered on 2**20, reaches below the bound) and stores the 16 the walk
    # reads; 2**22 - 1 takes 128 and reads 64, so the baby table stays and
    # the giant lists are rebuilt: 2**15*G by 15 binary doublings and a
    # normalization (124 multiplies, 1 inversion), then a ladder of 6
    # batches of 1, 2, ..., 32 lanes to 64 multiples of its negative, each
    # batch doubling its top lane (57 additions, 6 doublings, 3*63 + 6 +
    # 3*57 = 366 multiplies, 6 inversions).  All 128 took (120, 22, 872, 8)
    curve = builtin_curve()
    bsgs_cache(curve, 2**20 - 1)
    assert tally(bsgs_cache, curve, 2**22 - 1)[1] == (57, 21, 490, 7)
    assert bsgs_cache(curve, 2**22 - 1)[2:] == bsgs_cache(builtin_curve(), 2**22 - 1)[2:]
    # either side of the old end: giant step 32 (+j), the window edge
    # shared by steps 32 and 33, step 33's center, and the new last one
    for m in (32 * 2**15 + 5, 33 * 2**15 - 2**14, 33 * 2**15, 2**22 - 1):
        assert rmap(map_message(m, curve), 2**22 - 1) == m


def test_walk_counts_every_window():
    # a fresh search at 2**16 - 1: stride 4096 and 8 giant steps of span
    # 8192, paired about the middle window h = 4*8192 and walked inward by
    # pairs k = 4..1, plus window h + k*span first, then the minus window h
    # - k*span for k < 4.  Every search pays the shift (1 ECADD, 11
    # multiplies) and M, M' normalized (1 inversion, 11 multiplies); m 9
    # from window 0's or the middle window's centre answers there.  m 9
    # from the centre at walk position pos waits for pos windows at 1 ECADD
    # and 2 multiplies each, 1 multiply for its y3 (offset 9 is an anchor,
    # so its sign is free), and the one batch of 4 inverses (3*3
    # multiplies, 1 inversion).  65545, 9 above the first window's centre,
    # is an x hit above the bound, 1 multiply for its y3, and then the rest
    # of the walk
    curve = builtin_curve()
    bound, span, h = 2**16 - 1, 8192, 32768
    assert bsgs_cache(curve, bound)[0] == span // 2
    order = []
    for k in range(4, 0, -1):
        order += [h + k * span] + ([h - k * span] if k < 4 else [])
    assert order == [65536, 57344, 8192, 49152, 16384, 40960, 24576]
    for pos, centre in enumerate(order, 1):
        for m in (centre - 9, centre + 9):
            if m <= bound:
                ops = (1 + pos, 0, 32 + 2 * pos, 2)
                assert tally(rmap, map_message(m, curve), bound) == (m, ops), m
    for m in (9, h - 9, h + 9):
        assert tally(rmap, map_message(m, curve), bound) == (m, (1, 0, 22, 1)), m
    M = map_message(65545, curve)
    c = counters()
    before = (c.ecadd, c.ecdbl, c.fe_mul, c.fe_inv)
    with pytest.raises(NotFound):
        rmap(M, bound)
    after = (c.ecadd, c.ecdbl, c.fe_mul, c.fe_inv)
    assert tuple(a - b for a, b in zip(after, before)) == (8, 0, 46, 2)


def test_table_build_counts(curve):
    # a (4,4) table: G doubled 3*40 times to the last track's base, and once
    # more for that track's 2P, each other track's 2P being the first
    # doubling past its base; the 3 shifted bases and 4 doubled points
    # normalized together (1 inversion, 4*7 + 3*6 = 46 multiplies).  Per
    # track 3P = P + 2P by mmadd-2007-bl (6) and 5P, 7P by mixed additions
    # of 2P (11 each), the 12 multiples of all 4 tracks normalized together
    # (1 inversion, 4*12 + 3*11 = 81): 121*8 + 46 + 4*28 + 81 = 1207.
    # Importing its bytes decodes the base (3 multiplies for the curve
    # check) and builds the same table from it
    table, ops = tally(build_table, curve.G, 4, 4)
    assert ops == (12, 121, 1207, 2)
    assert tally(table_from_bytes, table_to_bytes(table), curve)[1] == (12, 121, 1210, 2)
    # the (16,6) shape fixed_base_table builds: 15 shifted bases by 10
    # doublings each and one doubling more, then 16 tracks of 3P, 5P, ...,
    # 31P, so ECADD 16*15 = 240 and ECDBL 15*10 + 1 = 151.  Multiplies: 151
    # doublings at 8, the 15 bases and 16 doubled points normalized at
    # 4*31 + 3*30, 16 mmadds (3P) at 6 and 224 mixed additions (5P to 31P)
    # at 11, and the 240 multiples normalized at 4*240 + 3*239: 1208 + 214
    # + 96 + 2464 + 1677 = 5659, one inversion for the bases and doubled
    # points and one for the multiples
    assert FIXED_BASE_SHAPE == (16, 6)
    assert tally(build_table, curve.G, *FIXED_BASE_SHAPE)[1] == (240, 151, 5659, 2)
    # width 2 keeps no odd multiple, so it doubles no point past the last
    # base: one track is G alone, two are one chain of 80 doublings and one
    # normalization at 4 multiplies and no batch product
    assert tally(build_table, curve.G, 1, 2)[1] == (0, 0, 0, 0)
    assert tally(build_table, curve.G, 2, 2)[1] == (0, 80, 644, 1)


@pytest.fixture(scope="module")
def operands(curve):
    Q = mul_binary(5, curve.G)
    return Q, to_affine(Q), mul_binary(7, curve.G)


def test_ajj_branches(curve, operands):
    Q, P, Q7 = operands
    inf = JacobianPoint.infinity(curve)
    assert tally(ec_add_ajj, AffinePoint.identity(curve), Q)[1] == (0, 0, 0, 0)
    assert tally(ec_add_ajj, P, inf)[1] == (0, 0, 0, 0)
    # equal x: 4 multiplies to detect it, then the 8-multiply doubling
    assert tally(ec_add_ajj, P, Q)[1] == (0, 1, 12, 0)
    out, ops = tally(ec_add_ajj, ec_neg(P), Q)
    assert out.is_infinity and ops == (0, 0, 4, 0)
    assert tally(ec_add_ajj, P, Q7)[1] == (1, 0, 11, 0)


def test_jjj_branches(curve, operands):
    Q, P, Q7 = operands
    p = curve.field.p
    inf = JacobianPoint.infinity(curve)
    A, A7 = lift(P), lift(to_affine(Q7))
    assert tally(ec_add_jjj, inf, Q)[1] == (0, 0, 0, 0)
    assert tally(ec_add_jjj, Q, inf)[1] == (0, 0, 0, 0)
    # both at Z = 1 (mmadd): equal x shows in X and Y for free, then the
    # 8-multiply doubling; distinct x costs 6
    assert tally(ec_add_jjj, A, A)[1] == (0, 1, 8, 0)
    out, ops = tally(ec_add_jjj, A, lift(ec_neg(P)))
    assert out.is_infinity and ops == (0, 0, 0, 0)
    assert tally(ec_add_jjj, A, A7)[1] == (1, 0, 6, 0)
    # one at Z = 1, either side (madd, as ec_add_ajj): 4 multiplies to find
    # equal x, 11 for distinct x
    assert tally(ec_add_jjj, Q, A)[1] == (0, 1, 12, 0)
    assert tally(ec_add_jjj, A, Q)[1] == (0, 1, 12, 0)
    out, ops = tally(ec_add_jjj, Q, lift(ec_neg(P)))
    assert out.is_infinity and ops == (0, 0, 4, 0)
    assert tally(ec_add_jjj, Q, A7)[1] == (1, 0, 11, 0)
    assert tally(ec_add_jjj, A7, Q)[1] == (1, 0, 11, 0)
    # neither (add-2007-bl): 8 multiplies to find equal x, 16 for distinct x
    assert tally(ec_add_jjj, Q, Q)[1] == (0, 1, 16, 0)
    out, ops = tally(ec_add_jjj, Q, JacobianPoint(curve, Q.X, p - Q.Y, Q.Z))
    assert out.is_infinity and ops == (0, 0, 8, 0)
    assert tally(ec_add_jjj, Q, Q7)[1] == (1, 0, 16, 0)


def test_dbl_counts_a_minus3(curve, operands):
    Q, _, _ = operands
    assert tally(ec_dbl_jj, Q)[1] == (0, 1, 8, 0)
    assert tally(ec_dbl_jj, JacobianPoint.infinity(curve))[1] == (0, 0, 0, 0)
