"""Additive homomorphic encryption on the curve group.

A plaintext m is carried as the point m*G and a ciphertext is the tuple
(R, S) of two Jacobian points, so adding two ciphertexts component-wise
adds the hidden plaintexts: (R1+R2, S1+S2) encrypts m1+m2.
Encryption draws a fresh k and emits (k*G, m*G + k*Y); decryption strips the
mask with the secret key (m*G = S + x*(-R)) and then searches the small
message range for the m whose multiple matches.  The search bound is what
keeps the scheme practical: aggregated sums are assumed to fit a configured
number of bits (24 by default, at most MAX_SEARCH_BITS).

The reader's public key Y is as fixed as G, so both encryption
multiplications run over the tables fixed_base_table caches: keygen builds
Y's table along with Y (the reader provisions sensors with both).  One
mul_interleave call over G's and Y's tables recodes and deals k once for
both R = k*G and S = k*Y + m*G, and S is one doubling chain, m's recoding
dealt over the generator table's tracks (Shamir's trick).

The search is baby-step/giant-step at every bound, over one baby/giant
table cached per curve: the one for the largest stride asked for so far,
which also serves every smaller bound.  It uses the negation map: j*G and
-j*G share an x, so one baby entry matches both signs and each giant step
covers twice the stride.  The giant steps are paired about the middle of
the range, so the search too is symmetric about a centre (Galbraith-Ruprai),
and walked inward from both ends.  Each table keeps only what the search
reads (after Bernstein-Lange): the baby table maps x to j, the sign of a hit
coming from a few hundred stored points, and the giant table holds the half
of the giant points that the paired walk reads.
It shares inversions wherever it can (Montgomery's trick, mod_inv_batch):
both tables are built around centres spaced 2K + 1 multiples apart, each
reaching the K multiples on either side through one inversion shared by its
K differences, and the giant steps are batched to one inversion per 32
giant points; in both, each inverse serves a +- pair of affine sums.

Only the holder of the secret key recovers a plaintext.  Encryption and
ct_add invert nothing; the one inversion a leaf or an aggregator pays is
ct_to_bytes's, which brings R and S to affine together for the wire (none
when both already sit at Z = 0 or 1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .counters import counters
from .curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    builtin_curve,
    decode_point,
    ec_add_ajj,
    ec_add_jjj,
    ec_neg,
    on_curve,
    to_affine,
    to_affine_batch,
)
from .errors import BadConfig, BadEncoding, MessageTooLarge, NotFound
from .field import mod_inv, mod_inv_batch
from .scalarmul import default_table, fixed_base_table, mul_binary, mul_interleave, mul_signed
from .textcfg import parse_kv, read_text

DEFAULT_MAX_BITS = 24

# Widest search bound: the giant table holds about bound // 2**16 points.
MAX_SEARCH_BITS = 32
# Offsets K on either side of each centre of a table build: one inversion
# per centre, shared by its K differences; a bounded batch keeps the memory
# a build holds beyond its tables flat (28 KB by tracemalloc at the 2**24
# bound, where normalizing all 2**14 baby points at once measured 4.3 MB).
_NORMALIZE_CHUNK = 256
# Giant steps sharing one inversion.
_GIANT_BATCH = 32


@dataclass(frozen=True)
class KeyPair:
    secret_x: int
    public_Y: AffinePoint


def keygen(rng, curve: CurveParams) -> KeyPair:
    """Draw x uniform in [1, order-1] and publish Y = x*G, with Y's
    fixed-base table built and cached on the curve for encrypt."""
    x = rng.randrange(1, curve.order_n)
    Y = to_affine(mul_binary(x, curve.G))
    fixed_base_table(Y)
    return KeyPair(x, Y)


def map_message(m: int, curve: CurveParams) -> JacobianPoint:
    """Embed a message in [0, 2**DEFAULT_MAX_BITS) as the point m*G; zero
    maps to the identity."""
    if m < 0 or m.bit_length() > DEFAULT_MAX_BITS:
        raise MessageTooLarge(f"message must be in [0, 2**{DEFAULT_MAX_BITS})")
    return mul_binary(m, curve.G)


def _lanes_plus(curve: CurveParams, xs: list[int], ys: list[int], qx: int, qy: int):
    """(x, y) lists of P + Q for every lane P = (xs[i], ys[i]), affine
    additions sharing one inversion (mod_inv_batch).

    A lane equal to Q is doubled within the batch; no lane may be opposite
    to Q, as the identity has no (x, y).  Each sum is the slope, x3 and y3
    at one multiplication each, a doubling one more for x**2, plus its share
    of the batch inversion.
    """
    p = curve.field.p
    nums = [y - qy for y in ys]
    dens = [x - qx for x in xs]
    doublings = 0
    if 0 in dens:
        for i in [i for i, d in enumerate(dens) if not d and not nums[i]]:
            nums[i] = 3 * qx * qx + curve.a
            dens[i] = 2 * qy
            doublings += 1
    c = counters()
    c.ecadd += len(xs) - doublings
    c.ecdbl += doublings
    c.fe_mul += 3 * len(xs) + doublings
    invs = mod_inv_batch(curve.field, dens)
    # no other list of lane-sized numbers is alive while the sums are stored
    # (the denominators are dropped, the slopes made one at a time): each
    # measured 0.1-0.2 MB more peak memory at the 2**24 build
    del dens
    out_x, out_y = [], []
    for x, num, inv in zip(xs, nums, invs):
        lam = num * inv % p
        x3 = (lam * lam - x - qx) % p
        out_x.append(x3)
        out_y.append((lam * (qx - x3) - qy) % p)
    return out_x, out_y


def _ladder(curve: CurveParams, x: int, y: int, count: int):
    """(x, y) lists of k*P for k = 1..count, P = (x, y): k*P for k <= n plus
    n*P gives n < k <= 2n (k = 2n a doubling), one batch per level."""
    xs, ys = [x], [y]
    while len(xs) < count:
        more = min(len(xs), count - len(xs))
        nx, ny = _lanes_plus(curve, xs[:more], ys[:more], xs[-1], ys[-1])
        xs += nx
        ys += ny
    return xs, ys


def _anchors(step: AffinePoint, count: int):
    """(qxs, qys, cxs, cys): the x and y lists of the points that the +-
    build of count multiples of step (_multiples) adds up.

    The K = min(count, _NORMALIZE_CHUNK) offsets k*step, 1 <= k <= K, come
    from a ladder.  Past K, the centres c*step for c = B, 2B, ..., spaced
    B = 2K + 1 apart (B*step is K*step doubled plus step, and the centres a
    ladder over it), as many as it takes for the last, c - K, to reach
    count: 256 offsets and 32 centres at a count of 2**14.
    """
    curve = step.curve
    qxs, qys = _ladder(curve, step.x, step.y, min(count, _NORMALIZE_CHUNK))
    k_max = len(qxs)
    if count <= k_max:
        return qxs, qys, [], []
    span = 2 * k_max + 1
    # B*step: K*step doubled, plus step
    (dx,), (dy,) = _lanes_plus(curve, qxs[-1:], qys[-1:], qxs[-1], qys[-1])
    (bx,), (by,) = _lanes_plus(curve, [dx], [dy], step.x, step.y)
    return (qxs, qys, *_ladder(curve, bx, by, (count - k_max + span - 1) // span))


def _multiples(step: AffinePoint, count: int, anchors=None):
    """Yield (j, x, y) of j*step once for every 1 <= j <= count, in no
    particular order of j, from _anchors(step, count) or the anchors given.

    The K offsets k*step are yielded first.  Then each centre C = c*step
    reaches c and c -+ k for 1 <= k <= K.  C + Q and C - Q for an offset
    Q = k*step share the denominator x_C - x_Q (Montgomery), so one
    mod_inv_batch over K differences serves 2K points, the slopes being
    (y_C - y_Q) and (y_C + y_Q) times the inverse.  A point is its slope,
    x3 and y3 at one multiplication each plus half of its inverse's 3 in
    the batch: 4.5 where a lone affine addition in a batch takes 6.  A
    caller that passes the anchors in keeps them, and tells j*step from
    -j*step by them (_baby_log), so each C +- Q comes with y None and the
    build skips its y3: 3.5 multiplications a point.  The last centre
    computes only the points at or below count.  Beyond the anchors, only
    one batch of K inverses is alive at a time, so peak memory stays flat
    whatever the count.  No c + k reaches count + 2K, so no difference is
    zero while that stays below the step's order.
    """
    if count <= 0:
        return
    ys = anchors is None
    qxs, qys, cxs, cys = anchors or _anchors(step, count)
    yield from zip(range(1, len(qxs) + 1), qxs, qys)
    k_max = len(qxs)
    span = 2 * k_max + 1
    f = step.curve.field
    p = f.p
    c = counters()
    for centre, xc, yc in zip(range(span, count + span, span), cxs, cys):
        if centre <= count:
            yield centre, xc, yc
        # C - Q for the offsets k >= first, and C + Q too for k <= top
        first = max(1, centre - count)
        top = count - centre
        qx, qy = qxs[first - 1:], qys[first - 1:]
        n = len(qx) + max(0, min(k_max, top))
        c.ecadd += n
        c.fe_mul += (2 + ys) * n
        invs = mod_inv_batch(f, [xc - x for x in qx])
        for k, x, y, inv in zip(range(first, k_max + 1), qx, qy, invs):
            lam = (yc + y) * inv % p
            sx = xc + x
            x3 = (lam * lam - sx) % p
            yield centre - k, x3, (lam * (xc - x3) - yc) % p if ys else None
            if k <= top:
                lam = (yc - y) * inv % p
                x3 = (lam * lam - sx) % p
                yield centre + k, x3, (lam * (xc - x3) - yc) % p if ys else None


def bsgs_cache(curve: CurveParams, max_value: int):
    """(stride, baby table, anchors, giant x list, giant y list) for
    searching [0, max_value].  Both tables are filled from _multiples, the
    giant lists by index.

    The baby table maps the x of j*G to j for 1 <= j <= stride, and nothing
    else: -j*G shares that x, so one entry answers both signs, and the
    anchors, the _anchors of the baby build (256 offsets and 32 centres,
    about 32 KB at the 2**24 bound), tell the two apart on a hit
    (_baby_log); so the build never computes the y of a centre +- offset.
    Entry i - 1 of the giant lists is -i*2*stride*G for 1 <= i <=
    ceil(N/2), N = _giant_steps(max_value, stride), the entries that
    rmap's walk reads: giant step i covers the window [2*i*stride - stride,
    2*i*stride + stride], and rmap pairs the N windows about the middle
    one, ceil(N/2) steps up.  The stride grows with the bound (16 at bound
    0, 512 at 1000, 2**14 from 2**18 up).  A curve caches one entry, the
    one with the largest stride asked for so far: a smaller bound reuses it
    with fewer giant steps, a larger stride replaces it, and a bound that
    needs more giant steps keeps the baby table and rebuilds the giant
    lists at the new length.

    Before any point work, MessageTooLarge rejects a bound outside
    [0, 2**MAX_SEARCH_BITS), as the giant table grows with it (2**16
    points, about 7 MB, at 32 bits), and one too close to the group order
    for the stride the search runs at.  The giant spacing 2*stride must lie
    below the order, or a baby point or a stored giant point could be the
    identity or two baby entries share an x.  And the bound plus the last
    window's centre N*2*stride must too: the walk forms every window up to
    that centre from the stored half, and a log it names there must be the
    point's only log within the bound, not one that wraps past the order
    (a giant point's own log, n - i*2*stride, must stay above the bound).
    Only a small-order curve can fail that.
    """
    if not 0 <= max_value < 1 << MAX_SEARCH_BITS:
        raise MessageTooLarge(f"search bound must be in [0, 2**{MAX_SEARCH_BITS})")
    cached = curve._rmap_cache
    stride = max(1 << min(14, (max_value.bit_length() + 1) // 2 + 4), cached[0] if cached else 0)
    span = 2 * stride
    steps = _giant_steps(max_value, stride)
    if span >= curve.order_n or max_value + span * steps >= curve.order_n:
        raise MessageTooLarge(f"search bound {max_value} too close to the group order")
    if cached is None or cached[0] < stride:
        # drop the smaller table before building, so the two never coexist
        cached = curve._rmap_cache = None
        anchors = _anchors(curve.G, stride)
        babies = {x: j for j, x, _ in _multiples(curve.G, stride, anchors)}
        cached = curve._rmap_cache = (stride, babies, anchors, [], [])
    *_, gxs, gys = cached
    stored = (steps + 1) // 2
    if len(gxs) < stored:
        gxs[:] = gys[:] = [0] * stored
        for j, x, y in _multiples(ec_neg(to_affine(mul_binary(span, curve.G))), stored):
            gxs[j - 1] = x
            gys[j - 1] = y
    return cached


def _giant_steps(max_value: int, stride: int) -> int:
    """Giant steps whose windows reach [0, max_value]: the last window's
    center 2*i*stride is at most max_value + stride."""
    return (max_value + stride) // (2 * stride)


def _baby_log(anchors, j: int, x: int, y: int, p: int) -> int:
    """The signed j with j*G = (x, y), for the baby entry j at x: j*G and
    -j*G share that x, and the baby build's anchors tell them apart.

    An offset (j <= K) or a centre is an anchor, stored with its y.  Any
    other j is c + k or c - k, the sum C + Q or C - Q of the centre C =
    c*G and the offset Q = k*G, whose y the build skipped; but that y
    meets the build's slope, y + y_C = lam*(x_C - x) for lam = (y_C -+ y_Q)
    / (x_C - x_Q), so (y + y_C)(x_C - x_Q) = (y_C -+ y_Q)(x_C - x) holds
    for j*G and fails for -j*G (whose y differs, as no point of odd order
    has y = 0): 2 multiplications, no inversion.
    """
    qxs, qys, cxs, cys = anchors
    k_max = len(qxs)
    if j <= k_max:
        plus = y == qys[j - 1]
    else:
        span = 2 * k_max + 1
        i = (j + k_max) // span
        k = j - i * span
        xc, yc = cxs[i - 1], cys[i - 1]
        if k:
            xq, yq = qxs[abs(k) - 1], qys[abs(k) - 1]
            counters().fe_mul += 2
            plus = (y + yc) * (xc - xq) % p == (yc - yq if k > 0 else yc + yq) * (xc - x) % p
        else:
            plus = y == yc
    return j if plus else -j


def rmap(M: JacobianPoint, max_value: int) -> int:
    """Recover the m in [0, max_value] with m*G = M.

    Baby-step/giant-step over bsgs_cache with the negation map: a baby
    entry j at the x of M - c*G gives m = c + j or c - j, as _baby_log
    tells from M - c*G's y (2 multiplications when j is a centre +-
    offset, none for an anchor), so the window centred on c covers
    [c - stride, c + stride].  M itself is window 0 (+j only), and N =
    _giant_steps(max_value, stride) windows centred on span .. N*span,
    span = 2*stride, cover the rest, the last reaching past the bound;
    every m is checked against the bound.

    The giant windows are paired about the middle one, h = half*span for
    half = (N + 1) // 2 (Galbraith-Ruprai): M' = M - h*G is one mixed
    addition, normalized along with M for one inversion (giant entries 1
    .. half, the ones bsgs_cache stores, are all the walk reads).  For k =
    1 .. N // 2, giant point Q = -k*span*G gives window h + k*span as M' + Q
    and, for k < half, window h - k*span as M' - Q; the two share the
    denominator x_Q - x_M', so each inverse of a batch of _GIANT_BATCH
    (mod_inv_batch) serves two windows, and each window is visited once.
    The pairs run inward, from k = N // 2 (the last window and the first)
    to k = 1 beside the middle: window w or N - w is reached after w pairs
    at 7 multiplications each, and only m near the middle waits for the
    whole walk.  A window computes its slope and x3, and y3 only when x3 is
    in the table: one ECADD and 2 multiplications, 1 more on an x hit.  The
    walk tallies each side's windows and the y3s as it computes them, and
    hands the tallies to counters() once, as it leaves.  A walk to the end
    takes N ECADDs (the shift and N - 1 windows) and 1 + ceil((N // 2) /
    _GIANT_BATCH) inversions.  M' at the x of a giant point Q is +-Q, which
    puts M's log at h - k*span (M' = Q) or h + k*span: that m is returned
    when in range, and otherwise no window holds one.
    A bound below the cached stride is answered by the baby table alone.

    Raises NotFound when no multiple in range matches, which is how a
    corrupted aggregate or a wrong key shows up, and MessageTooLarge for a
    bound bsgs_cache rejects.
    """
    curve = M.curve
    stride, babies, anchors, gxs, gys = bsgs_cache(curve, max_value)
    if M.is_infinity:
        return 0
    f = curve.field
    p = f.p
    span = 2 * stride
    steps = _giant_steps(max_value, stride)
    half = (steps + 1) // 2
    h = half * span
    points = [M]
    if steps:
        # M' = M - h*G: giant entry half - 1 is -h*G
        points.append(ec_add_ajj(AffinePoint(curve, gxs[half - 1], gys[half - 1]), M))
    P, *shifted = to_affine_batch(points)
    hit = babies.get(P.x)
    if hit is not None and 0 < _baby_log(anchors, hit, P.x, P.y, p) <= max_value:
        return hit
    if not steps:
        raise NotFound(f"no preimage at or below {max_value}")
    if shifted[0].infinity:
        # M = h*G
        if h <= max_value:
            return h
        raise NotFound(f"no preimage at or below {max_value}")
    xC, yC = shifted[0].x, shifted[0].y
    hit = babies.get(xC)
    if hit is not None and (m := h + _baby_log(anchors, hit, xC, yC, p)) <= max_value:
        return m
    # m stays above the bound until a window finds one in range; plus and
    # minus count the windows computed on each side, y3s their x hits
    m = max_value + 1
    plus = minus = y3s = 0
    for hi in range(steps // 2, 0, -_GIANT_BATCH):
        lo = max(hi - _GIANT_BATCH, 0)
        xs, ys = gxs[lo:hi][::-1], gys[lo:hi][::-1]
        dxs = [x - xC for x in xs]
        if 0 in dxs:
            k = hi - dxs.index(0)
            m = h - k * span if gys[k - 1] == yC else h + k * span
            break
        for k, gx, gy, inv in zip(range(hi, lo, -1), xs, ys, mod_inv_batch(f, dxs)):
            sx = xC + gx
            lam = (gy - yC) * inv % p
            x3 = (lam * lam - sx) % p
            plus += 1
            hit = babies.get(x3)
            if hit is not None:
                y3 = (lam * (xC - x3) - yC) % p
                y3s += 1
                m = h + k * span + _baby_log(anchors, hit, x3, y3, p)
                if m <= max_value:
                    break
            if k < half:
                # the mirror sum M' - Q over the same inverse; its m,
                # below h, is always in range
                lam = (-gy - yC) * inv % p
                x3 = (lam * lam - sx) % p
                minus += 1
                hit = babies.get(x3)
                if hit is not None:
                    y3 = (lam * (xC - x3) - yC) % p
                    y3s += 1
                    m = h - k * span + _baby_log(anchors, hit, x3, y3, p)
                    break
        if m <= max_value:
            break
    c = counters()
    c.ecadd += plus + minus
    c.fe_mul += 2 * (plus + minus) + y3s
    if m <= max_value:
        return m
    raise NotFound(f"no preimage at or below {max_value}")


def encrypt(public_Y: AffinePoint, m: int, rng) -> tuple[JacobianPoint, JacobianPoint]:
    """Fresh-randomness encryption of m < 2**DEFAULT_MAX_BITS under the
    public point: the pair (R, S) = (k*G, k*Y + m*G).

    Both multiplications run over the FIXED_BASE_SHAPE tables that
    fixed_base_table caches, in one mul_interleave call over the pair (G's
    table, Y's table): k is recoded and dealt once, each term read from
    both tables, and R = k*G and S = k*Y + m*G run one doubling chain each,
    m's terms dealt over the generator table's tracks into S's.  Nothing
    keeps k past that call: k strips S to m*G (S - k*Y), so a captured node
    must hold no k.  A key from this process's keygen finds its table
    built; any other key, such as one from load_public_key, pays one table
    build on first use.
    """
    if m < 0 or m.bit_length() > DEFAULT_MAX_BITS:
        raise MessageTooLarge(f"message must be in [0, 2**{DEFAULT_MAX_BITS})")
    curve = public_Y.curve
    y_table = fixed_base_table(public_Y)
    k = rng.randrange(1, curve.order_n)
    return mul_interleave(k, (default_table(curve), y_table), m)


def ct_add(c1: tuple[JacobianPoint, JacobianPoint],
           c2: tuple[JacobianPoint, JacobianPoint]) -> tuple[JacobianPoint, JacobianPoint]:
    """The pair (R1 + R2, S1 + S2) of two ciphertexts (R1, S1) and (R2, S2),
    one Jacobian addition per component; the aggregation operator."""
    (R1, S1), (R2, S2) = c1, c2
    return ec_add_jjj(R1, R2), ec_add_jjj(S1, S2)


def ct_identity(curve: CurveParams) -> tuple[JacobianPoint, JacobianPoint]:
    """The neutral ciphertext, the pair of identity points: an empty
    aggregate decrypting to zero."""
    return JacobianPoint.infinity(curve), JacobianPoint.infinity(curve)


def decrypt(secret_x: int, c: tuple[JacobianPoint, JacobianPoint], max_value: int) -> int:
    """Strip the mask from the ciphertext c = (R, S) (m*G = S + x*(-R)) and
    search the message range.

    The bound is checked (and the search tables built) before x*(-R), which
    runs over the width-4 signed recoding: 3R, 5R and 7R are built and
    scanned in Jacobian form, for a third fewer additions than width 2 and
    no inversion.  Width 5 would scan 5.3 fewer additions but build four
    more multiples at 18 multiplications each: 1,741.8 multiplications
    against 1,733.7 (`ecagg bench`, 60 trials at seed 1).  The product
    stays Jacobian and S is the affine operand of the mixed addition; R and
    S as decoded from the wire are affine already, so the only inversion
    besides the giant-step batches is the one rmap shares between M and its
    shift to the middle of the range.
    """
    R, S = c
    bsgs_cache(R.curve, max_value)
    return rmap(ec_add_ajj(to_affine(S), mul_signed(secret_x, ec_neg(to_affine(R)), 4)), max_value)


# ---------------------------------------------------------------------------
# Wire format: R then S, each in the point encoding of the curve module.

def ct_to_bytes(c: tuple[JacobianPoint, JacobianPoint]) -> bytes:
    """The ciphertext c = (R, S), R and S normalized together on ints and
    written in the point encoding (0x00, or 0x04 || x || y).

    A component at Z = 0 or 1 needs no inversion.  When both Z are above 1,
    one inversion of Z_R*Z_S yields both inverses for 3 multiplications
    (mod_inv_batch's count for a pair); each scaled point then costs 4.

    The same bytes and counts as point_to_bytes over to_affine_batch, kept
    inline because that route read relay-fold p50 5.88-6.00 ms against
    5.68-5.72 ms, worse in 6 of 6 alternated pairs (perfbench/run.py, seed
    1, 8 s, trace 0; Python 3.11.7, 2-CPU Xeon): measure before rerouting it.
    """
    R, S = c
    f = R.curve.field
    p, blen = f.p, f.byte_length
    bits = 8 * blen
    ops = counters()
    zr, zs = R.Z, S.Z
    # from here on zr and zs hold what scales R and S to affine
    if zr > 1 and zs > 1:
        inv = mod_inv(f, zr * zs % p)
        ops.fe_mul += 3
        zr, zs = zs * inv % p, zr * inv % p
    elif zr > 1:
        zr = mod_inv(f, zr)
    elif zs > 1:
        zs = mod_inv(f, zs)
    out = []
    for Q, zinv in ((R, zr), (S, zs)):
        if not zinv:
            out.append(b"\x00")
            continue
        x, y = Q.X, Q.Y
        if zinv != 1:
            ops.fe_mul += 4
            zi2 = zinv * zinv % p
            x = x * zi2 % p
            y = y * (zi2 * zinv % p) % p
        out.append(b"\x04" + (x << bits | y).to_bytes(2 * blen, "big"))
    return b"".join(out)


def ct_from_bytes(data: bytes, curve: CurveParams) -> tuple[JacobianPoint, JacobianPoint]:
    """The ciphertext (R, S) from R then S, each lifted by decode_point; no
    bytes may follow S."""
    R, pos = decode_point(data, 0, curve)
    S, pos = decode_point(data, pos, curve)
    if pos != len(data):
        raise BadEncoding("trailing bytes after ciphertext")
    return R, S


# ---------------------------------------------------------------------------
# Key files: key=value text with hexadecimal fields.

def save_keypair(kp: KeyPair, prefix) -> tuple[Path, Path]:
    """Write PREFIX.pub and PREFIX.sec, the secret one with mode 0600;
    returns the two paths.  Raises BadConfig, before writing anything, when
    either file exists: a key pair is never overwritten.
    """
    curve = kp.public_Y.curve
    width = 2 * curve.field.byte_length
    pub = Path(f"{prefix}.pub")
    sec = Path(f"{prefix}.sec")
    for path in (pub, sec):
        if os.path.lexists(path):
            raise BadConfig(f"{path} exists; refusing to overwrite a key file")
    pub.write_text(
        f"curve = {curve.name}\n"
        f"yx = {kp.public_Y.x:0{width}x}\n"
        f"yy = {kp.public_Y.y:0{width}x}\n")
    with os.fdopen(os.open(sec, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600), "w") as out:
        out.write(
            f"curve = {curve.name}\n"
            f"x = {kp.secret_x:0{width}x}\n")
    return pub, sec


def _read_key_file(path, fields: tuple[str, ...]) -> dict:
    """The key file's hex fields, and its curve built only once they parse."""
    raw = parse_kv(read_text(path, BadConfig, "key file"), BadConfig, ("curve",) + fields, fields)
    raw["curve"] = builtin_curve(raw["curve"])
    return raw


def load_public_key(path) -> AffinePoint:
    """Read a .pub file; the point is validated against its curve."""
    raw = _read_key_file(path, ("yx", "yy"))
    curve = raw["curve"]
    if not (0 <= raw["yx"] < curve.field.p and 0 <= raw["yy"] < curve.field.p):
        raise BadConfig("public key coordinate outside [0, p)")
    Y = AffinePoint(curve, raw["yx"], raw["yy"])
    if not on_curve(Y):
        raise BadConfig("public key is not on the curve")
    return Y


def load_secret_key(path) -> tuple[int, CurveParams]:
    raw = _read_key_file(path, ("x",))
    curve = raw["curve"]
    x = raw["x"]
    if not 1 <= x < curve.order_n:
        raise BadConfig("secret key outside [1, order-1]")
    return x, curve
