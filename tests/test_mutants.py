"""Mutation gate: the oracles below catch every named mutant of the group
law, normalization, the scan and its lookups, the odd-multiple chains of
lookups and tables, the recoding and the deal of k's and m's terms into
tracks and into each table's chain, the search, the sign of a baby hit,
the search tables' +- build and table import.

A mutant replaces one node of one function's syntax tree: the expression
or statement whose source reads ``old`` becomes ``new``.  The edited
function is defined again over its module's own globals and patched,
with monkeypatch, over the original in every ecagg module that holds it.
The sub-suite must then fail, by a failed check or by an error, and it
must pass on the unmutated program.  It builds its own curves, so no table
or search cache that the unmutated code built can hide a mutant.  It calls
mul_interleave and build_table, which mutants replace, through their
module: a name imported into this file would keep the original.

A mutant that survives is a gap in the checks: make them stronger, never
drop the mutant.
"""

import ast
import inspect
import random
import textwrap

import pytest
from conftest import (
    MULTIPLES_COUNTS,
    SECP_BABY_LOGS,
    TINY,
    TINY_A2,
    as_tuple,
    check_add_jjj_over_z_classes,
    check_baby_log,
    check_ct_to_bytes_over_z_classes,
    check_multiples,
    check_track_cut,
    cut_edges,
    jac_tuple,
    make_tiny,
    o_mul,
    o_of,
    x_equal_p_bytes,
)

from ecagg import aggsim, cli, curve, elgamal, scalarmul
from ecagg.counters import FIELDS, tally
from ecagg.curve import AffinePoint, builtin_curve, point_to_bytes, to_affine
from ecagg.elgamal import ct_add, ct_from_bytes, ct_to_bytes, decrypt, encrypt, keygen
from ecagg.errors import BadEncoding, NotFound, OffCurvePoint
from ecagg.scalarmul import (
    _signed_lookup,
    build_table,
    default_table,
    mul_binary,
    mul_signed,
    table_to_bytes,
    wmof_recode,
)

MODULES = (curve, scalarmul, elgamal, aggsim, cli)

# name: (module, function, old, new)
MUTANTS = {
    "scan-dbl-8yyyy-as-4yyyy": (scalarmul, "_chain", "yy * yy << 3", "yy * yy << 2"),
    "scan-dbl-z3-unshifted": (scalarmul, "_chain", "Y * Z << 1", "Y * Z"),
    "scan-madd-z3-minus-h": (scalarmul, "_chain", "(Z + h) * (Z + h)", "(Z - h) * (Z + h)"),
    "scan-madd-r-unshifted": (scalarmul, "_chain", "y2 * (Z * zz % p) % p - Y << 1",
                              "y2 * (Z * zz % p) % p - Y"),
    "scan-lowest-position-first": (scalarmul, "_chain", "reversed(adds)", "adds"),
    "scan-dbl-tally-7": (scalarmul, "_chain", "8 * n_dbl", "7 * n_dbl"),
    "scan-keeps-identity-entries": (scalarmul, "_deal", "pt is None", "False"),
    "scan-jadd-s1-by-z-squared": (scalarmul, "_chain", "Y * zzz2 % p", "Y * zz2 % p"),
    "scan-jadd-z3-without-h": (scalarmul, "_chain", "((Z + Z2) * (Z + Z2) - zz - zz2) * h",
                               "(Z + Z2) * (Z + Z2) - zz - zz2"),
    "scan-jadd-no-equal-u-fallback": (scalarmul, "_chain", "u1 != u2", "True"),
    "scan-jadd-tally-16": (scalarmul, "_chain", "14 * n_jadd", "16 * n_jadd"),
    "lookup-cache-zz-zzz-swapped": (scalarmul, "_signed_lookup",
                                    "(Q.X, Q.Y, Q.Z, zz, zz * Q.Z % p)",
                                    "(Q.X, Q.Y, Q.Z, zz * Q.Z % p, zz)"),
    "scan-mirror-keeps-affine-y": (scalarmul, "_deal", "(pt[0], p - pt[1])", "(pt[0], pt[1])"),
    "scan-mirror-flips-jacobian-x": (scalarmul, "_deal", "(pt[0], p - pt[1], *pt[2:])",
                                     "(p - pt[0], pt[1], *pt[2:])"),
    "lookup-cache-tally-3": (scalarmul, "_signed_lookup", "2 * len(chain)", "3 * len(chain)"),
    "odd-chain-steps-by-p": (scalarmul, "_odd_chain", "ec_add_jjj(dbl, chain[-1])",
                             "ec_add_jjj(lift(P), chain[-1])"),
    "build-chain-over-base-not-2b": (scalarmul, "build_table", "lift(affine[i * chunk + 1])",
                                     "lift(base)"),
    "build-doubles-past-last-base-at-width-2": (scalarmul, "build_table",
                                                "(t - 1) * chunk + (w > 2)",
                                                "(t - 1) * chunk + 1"),
    "odd-chain-3p-by-madd": (scalarmul, "_odd_chain", "ec_add_jjj(lift(P), dbl)",
                             "ec_add_ajj(P, dbl)"),
    "curve-dbl-8yyyy-as-4yyyy": (curve, "ec_dbl_jj", "yy * yy << 3", "yy * yy << 2"),
    "curve-madd-equal-x-is-identity": (curve, "_madd", "ec_dbl_jj(Q)",
                                       "JacobianPoint.infinity(cur)"),
    "recode-wraps-by-half": (scalarmul, "wmof_recode", "d -= full", "d -= half"),
    "terms-position-lags-shift": (scalarmul, "wmof_recode", "pos += w", "pos += w - 1"),
    "terms-zero-run-one-long": (scalarmul, "wmof_recode", "(k & -k).bit_length() - 1",
                                "(k & -k).bit_length()"),
    "scan-chain-sized-from-lowest-term": (scalarmul, "_reach", "terms[-1][0]", "terms[0][0]"),
    "rmap-center-plus-j": (elgamal, "_baby_log", "-j", "j"),
    "sign-centre-index-one-off": (elgamal, "_baby_log", "(j + k_max) // span",
                                  "(j + k_max) // span + 1"),
    "sign-centre-offset-sign-swapped": (elgamal, "_baby_log", "yc - yq if k > 0 else yc + yq",
                                        "yc + yq if k > 0 else yc - yq"),
    "sign-ladder-boundary-exclusive": (elgamal, "_baby_log", "j <= k_max", "j < k_max"),
    "walk-mirror-slope-sign": (elgamal, "rmap", "-gy - yC", "gy + yC"),
    "walk-mirror-slope-is-plus-slope": (elgamal, "rmap", "-gy - yC", "gy - yC"),
    "walk-minus-candidate-sign": (elgamal, "rmap",
                                  "h - k * span + _baby_log(anchors, hit, x3, y3, p)",
                                  "h - k * span - _baby_log(anchors, hit, x3, y3, p)"),
    "walk-centre-one-window-low": (elgamal, "rmap", "(steps + 1) // 2", "(steps + 1) // 2 - 1"),
    "walk-centre-one-window-high": (elgamal, "rmap", "(steps + 1) // 2", "(steps + 1) // 2 + 1"),
    "walk-drops-last-pair": (elgamal, "rmap", "steps // 2", "steps // 2 - 1"),
    "walk-equal-x-wrong-side": (elgamal, "rmap", "gys[k - 1] == yC", "gys[k - 1] != yC"),
    "walk-minus-window-uncounted": (elgamal, "rmap", "minus += 1", "pass"),
    "lanes-tangent-without-a": (elgamal, "_lanes_plus", "3 * qx * qx + curve.a", "3 * qx * qx"),
    "pm-minus-slope-y-difference": (elgamal, "_multiples", "yc + y", "yc - y"),
    "pm-minus-y-is-centre-y": (elgamal, "_multiples",
                               "(centre - k, x3, (lam * (xc - x3) - yc) % p if ys else None)",
                               "(centre - k, x3, yc)"),
    "pm-skips-centre-entry": (elgamal, "_multiples", "centre <= count", "False"),
    "pm-offset-index-off-by-one": (elgamal, "_multiples", "qxs[first - 1:]", "qxs[first:]"),
    "pm-last-centre-drops-top-plus": (elgamal, "_multiples", "k <= top", "k < top"),
    "pm-one-centre-short": (elgamal, "_anchors", "(count - k_max + span - 1) // span",
                            "(count - k_max) // span"),
    "pm-centres-2k-apart": (elgamal, "_multiples", "2 * k_max + 1", "2 * k_max"),
    "decode-skips-on-curve": (curve, "decode_point",
                              "(y * y - (x * x + curve.a) * x - curve.b) % p", "False"),
    "decode-y-split-at-field-bits": (curve, "decode_point", "(1 << bits) - 1",
                                     "curve.field.mask"),
    "decode-skips-range-check": (curve, "decode_point", "x >= p or y >= p", "False"),
    "decode-accepts-x-equal-p": (curve, "decode_point", "x >= p or y >= p", "x > p or y >= p"),
    "jjj-z3-without-h": (curve, "ec_add_jjj", "((Z1 + Z2) * (Z1 + Z2) - z1z1 - z2z2) * h",
                         "(Z1 + Z2) * (Z1 + Z2) - z1z1 - z2z2"),
    "jjj-equal-x-is-identity": (curve, "ec_add_jjj",
                                "ec_dbl_jj(Q1) if s1 == s2 else JacobianPoint.infinity(cur)",
                                "JacobianPoint.infinity(cur)"),
    "mmadd-z3-is-h": (curve, "ec_add_jjj", "(h << 1) % p", "h % p"),
    "mmadd-y3-without-y1j": (
        curve, "ec_add_jjj",
        "return JacobianPoint(cur, x3, (r * (v - x3) - (Y1 * j << 1)) % p, (h << 1) % p)",
        "return JacobianPoint(cur, x3, r * (v - x3) % p, (h << 1) % p)"),
    "mmadd-equal-x-is-identity": (curve, "ec_add_jjj",
                                  "ec_dbl_jj(Q1) if Y1 == Y2 else JacobianPoint.infinity(cur)",
                                  "JacobianPoint.infinity(cur)"),
    "madd-keeps-operand-order": (curve, "ec_add_jjj",
                                 "_madd(X1, Y1, Q2) if Z1 == 1 else _madd(X2, Y2, Q1)",
                                 "_madd(X2, Y2, Q1)"),
    "ct-scales-s-by-r-inverse": (elgamal, "ct_to_bytes", "zr * inv % p", "zs * inv % p"),
    "ct-writes-x-one-byte-short": (elgamal, "ct_to_bytes", "x << bits | y", "x << bits - 8 | y"),
    "normalize-y-by-z-squared": (curve, "to_affine_batch", "zi2 * zinv", "zi2"),
    "giants-one-stride-apart": (elgamal, "bsgs_cache", "2 * stride", "stride"),
    "giants-floor-half": (elgamal, "bsgs_cache", "(steps + 1) // 2", "steps // 2"),
    "table-import-skips-identity-check": (scalarmul, "table_from_bytes",
                                          "base.is_infinity", "False"),
    "m-row-over-track-1": (scalarmul, "mul_interleave", "g_table.signed",
                           "g_table.signed[1:]"),
    "m-dealt-onto-first-track": (scalarmul, "mul_interleave", "g_table.signed",
                                 "g_table.signed[:1]"),
    "m-dealt-at-tables-chunk": (scalarmul, "mul_interleave", "-(-n_bits // g_table.t)", "chunk"),
    "cut-last-row-drops-carry": (scalarmul, "mul_interleave", "wmof_recode(k, w)",
                                 "[term for term in wmof_recode(k, w) if term[0] < t * chunk]"),
    "cut-chunk-floored": (scalarmul, "mul_interleave", "-(-n_bits // t)", "n_bits // t"),
    "cut-row-start-one-late": (scalarmul, "_deal", "r * chunk", "r * chunk + 1"),
    "cut-offset-kept": (scalarmul, "_deal", "pos - r * chunk", "pos"),
    "cut-last-row-unclamped": (scalarmul, "_deal", "r > last", "False"),
    "pair-y-entry-in-r-chain": (scalarmul, "_deal", "zip(lookups, chains)",
                                "zip(lookups, chains[:1] * len(chains))"),
    "pair-m-into-first-chain": (scalarmul, "mul_interleave", "chains[-1:]", "chains[:1]"),
    "pair-mirrors-first-table-only": (scalarmul, "_deal",
                                      "(pt[0], p - pt[1]) if d < 0 else pt",
                                      "(pt[0], p - pt[1]) if d < 0 and adds is pairs[0][1] else pt"),
    "pair-last-chain-sized-from-k": (scalarmul, "mul_interleave",
                                     "max(sizes[-1], _reach(m_terms, g_table.t, g_chunk))",
                                     "sizes[-1]"),
}


def mutate(module, name, old, new):
    """module.name with its one node that reads old replaced by new."""
    original = getattr(module, name)
    lines, first = inspect.getsourcelines(original)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    ast.increment_lineno(tree, first - 1)
    targets = [node for node in ast.walk(tree) if ast.unparse(node) == old]
    assert len(targets) == 1, (name, old, len(targets))
    target = targets[0]
    if isinstance(target, ast.expr):
        replacement = ast.parse(new, mode="eval").body
    else:
        replacement = ast.parse(new).body[0]

    class Swap(ast.NodeTransformer):
        def visit(self, node):
            if node is target:
                return ast.copy_location(replacement, node)
            return self.generic_visit(node)

    tree = ast.fix_missing_locations(Swap().visit(tree))
    # the definition runs over the module's globals
    defined = {}
    exec(compile(tree, inspect.getsourcefile(module), "exec"), vars(module), defined)
    return defined[name]


def _secp160r1_round_trip():
    # the encrypt count pin of test_opcounts, (49, 18, 683, 0), on a fresh
    # curve with both tables built; then readings the search finds one
    # giant step up, at 2048 - 10 and 2048 + 10 (stride 2**10 at the bound
    # 4000): one match on each side of the window's center, which the
    # search tells apart only by the y stored with offset 10
    c = builtin_curve()
    keys = keygen(random.Random(0x5EED), c)
    default_table(c)
    with tally() as ops:
        encrypt(keys.public_Y, 200, random.Random(7))
    assert [getattr(ops, f) for f in FIELDS] == [49, 18, 683, 0]
    # and its 24-bit pin: m's terms dealt over G's tracks add no doubling
    with tally() as ops:
        encrypt(keys.public_Y, 0xABCDEF, random.Random(7))
    assert [getattr(ops, f) for f in FIELDS] == [52, 18, 716, 0]
    cts = {m: ct_from_bytes(ct_to_bytes(encrypt(keys.public_Y, m, random.Random(m))), c)
           for m in (2038, 2058, 7)}
    for m, ct in cts.items():
        assert decrypt(keys.secret_x, ct, 4000) == m
    # folds of two general-Z sums, and of a ciphertext with itself (the
    # equal-x doubling of ec_add_jjj's mmadd branch)
    folded = ct_add(ct_add(cts[2038], cts[7]), ct_add(cts[7], cts[7]))
    assert decrypt(keys.secret_x, folded, 4000) == 2038 + 3 * 7
    data = ct_to_bytes(cts[2038])
    bad = bytearray(data)
    bad[-1] ^= 1
    try:
        ct_from_bytes(bytes(bad), c)
    except OffCurvePoint:
        pass
    else:
        raise AssertionError("a point off the curve decoded")


def _secp160r1_walk():
    # a fresh search at 2**16 - 1: stride 4096 and 8 giant steps, paired
    # about the middle window h = 4*8192 and walked inward by pairs k = 4..1
    # (pair 4 has only its plus window, 65536).  Every centre h +- k*8192,
    # where M' is a giant point or its negative (equal x), and m 9 either
    # side of it, told apart only by the y stored with offset 9; h itself
    # (M' the identity) and window 0.  Exact costs, each with the shift (1
    # ECADD, 11 multiplies) and M, M' normalized (1 inversion, 11
    # multiplies): 65527, the plus window of pair 4, walked first (1 window
    # at 2 multiplies + 1 for its y3, the batch of 4 inverses 3*3 + 1
    # inversion); 64936, in that window too, but 600 = 513 + 87 is a
    # centre + offset, whose sign takes _baby_log's 2 multiplies;
    # 8201, the minus window of pair 3, third (3 windows);
    # 40969, the plus window of pair 1, sixth (6 windows); 57344 = h +
    # 3*8192, where M' = -(giant point 3) answers before any inverse; and a
    # walk to its end, 7 windows with no hit
    c = builtin_curve()
    bound, span, h = 2**16 - 1, 8192, 32768
    found = {0, 1, 4095, h - 9, h, h + 9, bound}
    for centre in [h + k * span for k in range(1, 5)] + [h - k * span for k in range(1, 4)]:
        found |= {m for m in (centre - 9, centre, centre + 9) if m <= bound}
    for m in sorted(found):
        assert elgamal.rmap(mul_binary(m, c.G), bound) == m, m
    for m in (bound + 1, h + 4 * span + 9):
        try:
            elgamal.rmap(mul_binary(m, c.G), bound)
        except NotFound:
            pass
        else:
            raise AssertionError(f"{m} found above the bound")
    costs = {65527: [2, 0, 34, 2], 64936: [2, 0, 36, 2], 8201: [4, 0, 38, 2],
             40969: [7, 0, 44, 2],
             57344: [1, 0, 22, 1], 3**90 % c.order_n: [8, 0, 45, 2]}
    for m, cost in costs.items():
        M = mul_binary(m, c.G)
        with tally() as ops:
            try:
                assert elgamal.rmap(M, bound) == m
            except NotFound:
                assert m > bound
        assert [getattr(ops, f) for f in FIELDS] == cost, m


def _tiny_odd_walk(c):
    # bound 3000 on a fresh tiny curve: stride 1024 and one giant step, so
    # the table stores ceil(1/2) = 1 giant point, the one that shifts M to
    # the middle window, 2048; the windows' baby hits reach both centres,
    # 513 and 1026, either side
    bound = 3000
    for m in [*range(0, bound, 7), bound, bound + 1]:
        try:
            assert elgamal.rmap(mul_binary(m, c.G), bound) == m, m
        except NotFound:
            assert m > bound
        else:
            assert m <= bound


def _identity_lookup(c):
    # a row over the identity dealt beside a row over G adds nothing
    p, a = o_of(c)
    chain = [()] * 11, [()] * 11  # 1000's top term sits at position 10
    scalarmul._deal(c.field.p, wmof_recode(1000, 2), ((_signed_lookup(c.G, 2),),), 1, (chain,))
    scalarmul._deal(c.field.p, wmof_recode(77, 2),
                    ((_signed_lookup(AffinePoint.identity(c), 2),),), 1, (chain,))
    assert jac_tuple(scalarmul._chain(c, *chain)) == o_mul(1000, as_tuple(c.G), p, a)
    assert mul_signed(77, AffinePoint.identity(c), 2).is_infinity


def _tiny_sweep(c):
    # k across the group order: the chain meets the added point (a
    # doubling) and its negative (the identity)
    p, a = o_of(c)
    g = as_tuple(c.G)
    p_table = build_table(to_affine(mul_binary(2, c.G)), 4, 4)
    for k in range(c.order_n - 64, c.order_n + 64):
        want = o_mul(k, g, p, a)
        for w in (2, 3, 4, 5, 6):
            assert jac_tuple(mul_signed(k, c.G, w)) == want, (k, w)
        m = k % 256
        got = scalarmul.mul_interleave(k, p_table, m)
        assert jac_tuple(got) == o_mul(2 * k + m, g, p, a), k


def _pair_sweep(c):
    # one call over two tables of one shape, k across the group order: R =
    # k*G and S = k*P + m*G, P = 2G, for no m, a one-term m, an m with
    # terms on the generator table's last track and a reading wider than
    # the field, whose terms reach offsets k's do not
    p, a = o_of(c)
    g = as_tuple(c.G)
    P = to_affine(mul_binary(2, c.G))
    tables = (build_table(c.G, 4, 4), build_table(P, 4, 4))
    for m in (0, 1 << 7, (3 << 12) + 5, (1 << 23) + 9):
        for k in range(c.order_n - 32, c.order_n + 32):
            R, S = scalarmul.mul_interleave(k, tables, m)
            assert jac_tuple(R) == o_mul(k, g, p, a), (k, m)
            assert jac_tuple(S) == o_mul(2 * k + m, g, p, a), (k, m)


def _wide_m_sweep(c):
    # k*P + m*G for readings up to encrypt's 24 bits, wider than the tiny
    # curves' field: m's terms are dealt over the generator table's one-bit
    # tracks, every term from position 12 up on the last one
    p, a = o_of(c)
    g = as_tuple(c.G)
    p_table = build_table(to_affine(mul_binary(2, c.G)), 4, 5)
    rng = random.Random(c.name)
    for bits in range(9, 25):
        for m in ((1 << bits) - 1, 1 << (bits - 1), rng.getrandbits(bits)):
            k = rng.randrange(c.order_n)
            got = scalarmul.mul_interleave(k, p_table, m)
            assert jac_tuple(got) == o_mul(2 * k + m, g, p, a), (k, m)


def _signed_tally(c):
    # mul_signed's exact tally at each width, for k below n/2, where no
    # partial sum meets an entry.  Above width 2: 2P by one doubling, 3P =
    # P + 2P by a mixed addition (11 multiplies), 5P up to (2**(w-1) - 1)P
    # by add-2007-bl (16 each), and 2 multiplies to cache each odd
    # multiple's Z**2 and Z**3.  Then a doubling per position below the top
    # term's, and an addition per term below it: 11 multiplies against P,
    # 14 against a cached multiple.  The top term lands on the identity,
    # free
    dbl = 8 if c.a_is_minus3 else 10
    for w in (2, 3, 4, 5, 6):
        odd = (1 << (w - 2)) - 1
        chain = [odd, min(odd, 1), (dbl + 11 + 16 * (odd - 1) + 2 * odd) if odd else 0, 0]
        for k in range(1, c.order_n // 2, 37):
            terms = wmof_recode(k, w)
            top = terms[-1][0]
            low = [abs(d) for _, d in terms[:-1]]
            ones = low.count(1)
            want = [chain[0] + len(low), chain[1] + top,
                    chain[2] + dbl * top + 11 * ones + 14 * (len(low) - ones), 0]
            with tally() as ops:
                mul_signed(k, c.G, w)
            assert [getattr(ops, f) for f in FIELDS] == want, (k, w)


def _build_tally(c):
    # build_table's exact tally at one, two, three and thirteen tracks (a
    # chunk of 1, where a track's 2B is the next one's base) and each width.
    # G is doubled to the last track's base, and once more above width 2;
    # the bases and 2B points other than G, each normalized once, share an
    # inversion (4 multiplies each, 3 per batch step).  Per track 3B = B +
    # 2B by mmadd-2007-bl (6) and each next multiple by a mixed addition
    # of 2B (11), then all tracks' multiples share the second inversion
    dbl = 8 if c.a_is_minus3 else 10
    for t in (1, 2, 3, 13):
        chunk = -(-c.field.n // t)
        for w in (2, 3, 4, 5, 6):
            per = (1 << (w - 2)) - 1
            odd = t * per
            doublings = (t - 1) * chunk + (w > 2)
            kept = len({i * chunk + d for i in range(t) for d in range(1 + (w > 2))}) - 1
            chains = t * (6 + 11 * (per - 1)) + 4 * odd + 3 * (odd - 1) if per else 0
            want = [odd, doublings, dbl * doublings + 4 * kept + 3 * max(kept - 1, 0) + chains,
                    (kept > 0) + (per > 0)]
            with tally() as ops:
                scalarmul.build_table(c.G, t, w)
            assert [getattr(ops, f) for f in FIELDS] == want, (t, w)


def _track_cut(c):
    # k*G at one track, three (where a floored chunk misplaces the rows)
    # and thirteen, for k at the cut's edges: the widest k the bound check
    # admits ends in a term past t*chunk, which the last row must keep
    for t in (1, 3, 13):
        for w in (4, 5, 6):
            check_track_cut(c, t, w, cut_edges(t, c.field.n, c.order_n))


def _identity_base_table(c):
    # a table file whose base is the identity is refused, and the file of
    # the same shape over G imports as G's table
    data = table_to_bytes(build_table(c.G, 2, 3))
    assert scalarmul.table_from_bytes(data, c).signed[0][0] == (c.G.x, c.G.y)
    base = point_to_bytes(c.G)
    try:
        scalarmul.table_from_bytes(data[:-len(base)] + point_to_bytes(AffinePoint.identity(c)), c)
    except BadEncoding:
        pass
    else:
        raise AssertionError("a table over the identity imported")


def _wide_coordinate(c):
    # ciphertexts whose R carries x + p, or y + 2**13: each fits the tiny
    # curves' two-byte coordinates and, reduced mod p or cut to the field's
    # 13 bits, meets the curve equation, yet must not decode
    p = c.field.p
    for x, y in ((c.G.x + p, c.G.y), (c.G.x, c.G.y + (1 << c.field.n))):
        wide = bytes([0x04]) + x.to_bytes(2, "big") + y.to_bytes(2, "big")
        try:
            ct_from_bytes(wide + point_to_bytes(c.G), c)
        except OffCurvePoint:
            pass
        else:
            raise AssertionError("a coordinate not below p decoded")


def _x_equal_p(c):
    # a ciphertext whose R is 04 || p || sqrt(b): on secp160r1 it meets the
    # curve equation once x is reduced mod p, so only x < p refuses it
    try:
        ct_from_bytes(x_equal_p_bytes(c) + point_to_bytes(c.G), c)
    except OffCurvePoint:
        pass
    else:
        raise AssertionError("a coordinate equal to p decoded")


def oracle_sub_suite():
    _secp160r1_round_trip()
    _secp160r1_walk()
    _x_equal_p(builtin_curve())
    check_baby_log(builtin_curve(), 2**14, SECP_BABY_LOGS)
    for c in (make_tiny(TINY, "tiny13"), make_tiny(TINY_A2, "tiny13a2")):
        for count in MULTIPLES_COUNTS:
            check_multiples(c, count)
        check_baby_log(c, 2048, range(1, 2049))
        _tiny_odd_walk(c)
        check_add_jjj_over_z_classes(c, random.Random(c.name))
        check_ct_to_bytes_over_z_classes(c, random.Random(c.name))
        _identity_lookup(c)
        _tiny_sweep(c)
        _pair_sweep(c)
        _wide_m_sweep(c)
        _signed_tally(c)
        _build_tally(c)
        _track_cut(c)
        _identity_base_table(c)
        _wide_coordinate(c)


def test_sub_suite_passes_on_the_program():
    oracle_sub_suite()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, monkeypatch):
    module, function, old, new = MUTANTS[name]
    original = getattr(module, function)
    mutant = mutate(module, function, old, new)
    holders = [mod for mod in MODULES if getattr(mod, function, None) is original]
    assert module in holders
    for mod in holders:
        monkeypatch.setattr(mod, function, mutant)
    with pytest.raises(Exception):
        oracle_sub_suite()
