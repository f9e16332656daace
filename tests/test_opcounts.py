"""Exact operation counts: the paper's hardware-free cost metric.

Every tuple is (ECADD, ECDBL, field multiplications, inversions) counted on
secp160r1.  The values were taken from the implementation that routed each
multiply and square through mod_mul, so any rewrite of the group law has to
keep its per-formula tallies exact to pass.  The decrypt and BSGS-build
values were taken again when the reader's search began sharing inversions,
the decrypt once more when normalizing an affine R became free, and both
again when the search began matching +-j in the baby table (giant steps of
twice the stride) and decrypt stopped normalizing x*R, and the build once
more when the tables came to be built by lane-batched affine additions.  The
encrypt value was taken again when k*Y moved onto a (4,4) public-key table
with m*G folded into its chain, and once more when both tables became
(8,4) and one recoding of k came to serve both chains, and the fold value when serializing began
sharing one inversion between R and S.  The table build and import values
were taken when building stopped re-deriving its points by binary
multiplication, and import began comparing against a local build.
"""

import random

import pytest

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
    # k*G and k*Y + 200*G over the (8,4) tables that the default table and
    # keygen built beforehand.  This k's eight 20-bit tracks recode to rows
    # of at most 21 digits holding 36 nonzero ones, and 200 to the row
    # -7*2**3 + 2**8 with 2: each chain doubles 20 times (its first
    # doubling is of the identity, free), and each scan's first addition
    # lands on the identity, free.  ECADD 35 + 37 = 72, ECDBL 2*20 = 40,
    # 11 multiplies a mixed addition and 8 a doubling: 72*11 + 40*8 = 1112
    _, ops = tally(encrypt, keys.public_Y, 200, random.Random(7))
    assert ops == (72, 40, 1112, 0)


def test_encrypt_after_keygen_repeats_its_counts():
    # perfbench's set-up on a fresh curve (keygen, then the default table)
    # leaves nothing for the first encrypt to build, so the first and
    # second calls with the same draws count the same.  k < n < 2**160 +
    # 2**81 leaves its top track at most 2**20, and 77 is shorter still:
    # no row exceeds 21 digits, so each of the two chains doubles at most
    # 20 times
    curve = builtin_curve()
    kp = keygen(random.Random(0x5EE0), curve)
    default_table(curve)
    first = tally(encrypt, kp.public_Y, 77, random.Random(3))[1]
    assert tally(encrypt, kp.public_Y, 77, random.Random(3))[1] == first
    assert first[1] <= 40 and first[3] == 0


def test_fold_and_serialize_counts(keys, curve):
    rng = random.Random(11)
    wire = [ct_to_bytes(encrypt(keys.public_Y, m, rng)) for m in (15, 16, 18, 14)]

    def fold():
        acc = ct_identity(curve)
        for data in wire:
            acc = ct_add(acc, ct_from_bytes(data, curve))
        return ct_to_bytes(acc)

    root, ops = tally(fold)
    # 8 decodes at 3 multiplies, 3 real additions per component at 16,
    # 2 normalizations at 4 multiplies sharing 1 inversion (3 multiplies)
    assert ops == (6, 0, 131, 1)
    assert decrypt(keys.secret_x, ct_from_bytes(root, curve), 1000) == 63


def test_decrypt_counts(keys, curve):
    rng = random.Random(11)
    ct = ct_from_bytes(ct_to_bytes(encrypt(keys.public_Y, 0xABCDEF, rng)), curve)
    m, ops = tally(decrypt, keys.secret_x, ct, BOUND)
    assert m == 0xABCDEF
    # signed x*(-R), left Jacobian for the mixed addition with S (R and S
    # from the wire are affine, so normalizing them is free), one inversion
    # to normalize M, then 344 giant steps in 11 batches of one inversion
    # each: 0xABCDEF = 344*2**15 - 12817 is a -j match
    assert ops == (400, 159, 3604, 12)


# A search table is built in lanes of 256 affine points.  The first 256
# multiples of the step come from a ladder of 8 batches (n*step added to
# the lanes 1..n, the last of them a doubling): 247 additions, 8 doublings,
# 3*255 + 8 + 3*(255 - 8) = 1,514 multiplies and 8 inversions.  Each later
# block advances every lane by 256*step in one batch of 256 sums, 3*256 +
# 3*255 = 1,533 multiplies and 1 inversion; in the first such block lane
# 256 meets 256*step itself and is doubled, 1 multiply more.


def test_bsgs_build_counts():
    # a fresh curve's one-off build for the default bound: 2**14 baby points,
    # the ladder plus 63 blocks (98,094 multiplies, 71 inversions); 2**15*G
    # by 15 binary doublings and one normalization (124 multiplies, 1
    # inversion); and 512 giant points, -2**15*G to -2**24*G, the ladder
    # plus 1 block (3,048 multiplies, 9 inversions)
    table, ops = tally(bsgs_cache, builtin_curve(), BOUND)
    assert ops == (16876, 33, 101266, 81)
    assert table[0] == 2**14 and len(table[1]) == 2**14
    assert len(table[2]) == len(table[3]) == 512


def test_bsgs_build_counts_small_bound():
    # bound 1000 takes stride 512: 512 baby points, the ladder plus 1 block
    # (3,048 multiplies, 9 inversions), 1024*G by 10 binary doublings and a
    # normalization (84 multiplies, 1 inversion), and 1 giant point, itself
    assert tally(bsgs_cache, builtin_curve(), 1000)[1] == (502, 19, 3132, 10)


def test_bsgs_extension_counts():
    # bound 2**20 - 1 holds 32 giant points at stride 2**14 (the last window,
    # centered on 2**20, reaches below the bound); 2**22 - 1 needs 128, so
    # the baby table stays and the giant lists are rebuilt: 2**15*G by 15
    # binary doublings and a normalization (124 multiplies, 1 inversion),
    # then a ladder of 7 batches of 1, 2, ..., 64 lanes to 128 multiples of
    # its negative, each batch doubling its top lane (120 additions, 7
    # doublings, 3*127 + 7 + 3*120 = 748 multiplies, 7 inversions)
    curve = builtin_curve()
    bsgs_cache(curve, 2**20 - 1)
    assert tally(bsgs_cache, curve, 2**22 - 1)[1] == (120, 22, 872, 8)
    assert bsgs_cache(curve, 2**22 - 1)[2:] == bsgs_cache(builtin_curve(), 2**22 - 1)[2:]
    # either side of the old end: giant step 32 (+j), the window edge
    # shared by steps 32 and 33, step 33's center, and the new last one
    for m in (32 * 2**15 + 5, 33 * 2**15 - 2**14, 33 * 2**15, 2**22 - 1):
        assert rmap(map_message(m, curve), 2**22 - 1) == m


def test_table_build_counts(curve):
    # a (4,4) table: 3 shifted bases by 40 doublings each, normalized
    # together (1 inversion); then per track 2P by one doubling and 3P, 5P,
    # 7P by three additions, normalized together (1 inversion each).
    # Importing its bytes decodes the 16 points (3 multiplies each for the
    # curve check) and builds the same table from the first one
    table, ops = tally(build_table, curve.G, 4, 4)
    assert ops == (12, 124, 1254, 5)
    assert tally(table_from_bytes, table_to_bytes(table), curve)[1] == (12, 124, 1302, 5)
    # the (8,4) shape fixed_base_table builds: 7 shifted bases by 20
    # doublings each and 8 tracks of 2P, 3P, 5P, 7P, so ECADD 8*3 = 24 and
    # ECDBL 7*20 + 8 = 148.  Multiplies: 148 doublings at 8, 8 mixed
    # additions (3P) at 11 and 16 Jacobian ones at 16, the 7 bases
    # normalized at 3*6 + 4*7 and each track's 3 multiples at 3*2 + 4*3:
    # 1184 + 88 + 256 + 46 + 8*18 = 1718, one inversion for the bases and
    # one per track
    assert FIXED_BASE_SHAPE == (8, 4)
    assert tally(build_table, curve.G, *FIXED_BASE_SHAPE)[1] == (24, 148, 1718, 9)


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
    inf = JacobianPoint.infinity(curve)
    assert tally(ec_add_jjj, inf, Q)[1] == (0, 0, 0, 0)
    assert tally(ec_add_jjj, Q, inf)[1] == (0, 0, 0, 0)
    assert tally(ec_add_jjj, Q, lift(P))[1] == (0, 1, 16, 0)
    out, ops = tally(ec_add_jjj, Q, lift(ec_neg(P)))
    assert out.is_infinity and ops == (0, 0, 8, 0)
    assert tally(ec_add_jjj, Q, Q7)[1] == (1, 0, 16, 0)


def test_dbl_counts_a_minus3(curve, operands):
    Q, _, _ = operands
    assert tally(ec_dbl_jj, Q)[1] == (0, 1, 8, 0)
    assert tally(ec_dbl_jj, JacobianPoint.infinity(curve))[1] == (0, 0, 0, 0)
