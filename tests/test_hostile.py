"""Seeded hostile aggregates: valid ciphertexts aimed at the edge cases of
folding, normalizing and searching.

An aggregator cannot tell a hostile child from an honest one, since any two
curve points encrypt some sum.  The generator below draws, as a fixed
function of the curve's name, children that are identical, opposite, or
the identity in one component.  It folds them the way aggregators do, some
through the wire and some still Jacobian, and once more as one aggregator
hop (aggsim.fold) over every child's wire bytes, and aims the total at the
search's edges: exactly the bound, the bound + 1, n - 1, the centre of
the first giant window, the negative of the last giant point the table
stores, a stored giant point itself, and a match above the bound in the
baby table or the last window; and, at several bounds, at
the middle window that rmap pairs the others about and at every giant
window's centre either side of it (rmap's equal-x branch).  Every
intermediate R and S must equal the affine oracle's, and the decryption must return the true sum when it
lies within the bound and raise an ecagg.errors.Error otherwise.  On the
tiny curves the folds must take every branch of ec_add_jjj (FOLD_PATHS).
"""

import random
import zlib
from itertools import product

import pytest
from conftest import TINY, TINY_A2, as_tuple, jac_tuple, make_tiny, o_add, o_mul, o_of

from ecagg import aggsim, elgamal
from ecagg.counters import tally
from ecagg.curve import JacobianPoint, builtin_curve, to_affine, to_affine_batch
from ecagg.elgamal import (
    _GIANT_BATCH,
    _giant_steps,
    bsgs_cache,
    ct_add,
    ct_from_bytes,
    ct_to_bytes,
    decrypt,
    encrypt,
    rmap,
)
from ecagg.errors import Error, MessageTooLarge, NotFound
from ecagg.scalarmul import mul_binary

TARGETS = ("bound", "bound + 1", "n - 1", "-first giant", "-last giant", "+giant",
           "above the bound", "within")
# children are one to four groups of these, then one child that sets the total
GROUPS = ("plain", "identical", "opposite", "identity R", "identity S")

# What ec_add_jjj's branches see, per component: (class of the left Z,
# class of the right Z, how the points relate), a class being Z itself or 2
# for any Z above 1.  An identity operand, then mmadd, madd with its affine
# operand on either side, and add-2007-bl, each at distinct, equal and
# opposite points.
FOLD_PATHS = {(0, 0, "equal"), (0, 1, "distinct"), (0, 2, "distinct"), (1, 0, "distinct"),
              (2, 0, "distinct"), *product((1, 2), (1, 2), ("distinct", "equal", "opposite"))}

# name: (fresh curve, search bounds); on the tiny curves the last bound is
# the largest that bsgs_cache accepts (test_largest_accepted_bound_decrypts)
CURVES = {
    "tiny13": (lambda: make_tiny(TINY, "tiny13"), (0, 1, 100, 4000, 4124)),
    "tiny13a2": (lambda: make_tiny(TINY_A2, "tiny13a2"), (0, 100, 4000, 4070)),
    "secp160r1": (builtin_curve, (4000,)),
}


def seeded(name):
    return random.Random(zlib.crc32(name.encode()))


class Node:
    """A ciphertext, the scalars it hides (R = k*G, S = (m + x*k)*G, mod n),
    the oracle's R and S, and the wire bytes of the children it sums, each
    as often as it is summed."""

    def __init__(self, ct, k, m, oR, oS, children):
        self.ct, self.k, self.m, self.oR, self.oS = ct, k, m, oR, oS
        self.children = children

    def check(self):
        R, S = self.ct
        assert jac_tuple(R) == self.oR and jac_tuple(S) == self.oS


class Case:
    def __init__(self, c, x, rng):
        self.c, self.x, self.rng = c, x, rng
        self.p, self.a = o_of(c)
        self.g = as_tuple(c.G)
        self.n = c.order_n
        self.seen = set()
        # the FOLD_PATHS that the folds took
        self.paths = set()

    def child(self, k, m):
        k, m = k % self.n, m % self.n
        s = (m + self.x * k) % self.n
        ct = (mul_binary(k, self.c.G), mul_binary(s, self.c.G))
        return Node(ct, k, m, o_mul(k, self.g, self.p, self.a), o_mul(s, self.g, self.p, self.a),
                    [ct_to_bytes(ct)])

    def wire(self, node):
        """node as an aggregator receives it half the time: encoded and
        decoded, so its points carry Z = 1 (or 0)."""
        if self.rng.random() < 0.5:
            node.ct = ct_from_bytes(ct_to_bytes(node.ct), self.c)
        return node

    def fold(self, left, right):
        (lR, lS), (rR, rS) = left.ct, right.ct
        for l, r, oL, oR in ((lR, rR, left.oR, right.oR), (lS, rS, left.oS, right.oS)):
            relation = ("equal" if oL == oR else
                        "opposite" if None not in (oL, oR) and o_add(oL, oR, self.p, self.a) is None
                        else "distinct")
            self.paths.add((min(l.Z, 2), min(r.Z, 2), relation))
        ct = ct_add(left.ct, right.ct)
        node = Node(ct, (left.k + right.k) % self.n, (left.m + right.m) % self.n,
                    o_add(left.oR, right.oR, self.p, self.a),
                    o_add(left.oS, right.oS, self.p, self.a),
                    left.children + right.children)
        node.check()
        return self.wire(node)

    def group(self, kind):
        rng, n = self.rng, self.n
        k, m = rng.randrange(1, n), rng.randrange(n)
        if kind == "identity R":
            return [self.child(0, m)]
        if kind == "identity S":
            return [self.child(k, -self.x * k)]
        first = self.child(k, m)
        if kind == "identical":
            return [first, self.child(k, m)]
        if kind == "opposite":
            return [first, self.child(-k, -m)]
        return [first]

    def aggregate(self, total):
        """Hostile groups, each folded on its own, then the running total
        folded with each group, with itself or with its mirror; the last
        child makes the hidden sum total.  The same children, folded as
        one aggregator folds its children's bytes, give the same R and S."""
        rng = self.rng
        acc = None
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(GROUPS)
            nodes = [self.wire(node) for node in self.group(kind)]
            while len(nodes) > 1:
                nodes[:2] = [self.fold(nodes[0], nodes[1])]
            acc = nodes[0] if acc is None else self.fold(acc, nodes[0])
            top = rng.choice(("group", "itself", "mirror"))
            self.seen |= {kind, top}
            if top == "itself":
                acc = self.fold(acc, acc)
            elif top == "mirror":
                acc = self.fold(acc, self.wire(self.child(-acc.k, -acc.m)))
        last = self.child(rng.choice((0, rng.randrange(1, self.n))), total - acc.m)
        node = self.fold(acc, self.wire(last))
        hop_R, hop_S = ct_from_bytes(aggsim.fold(node.children, self.c), self.c)
        assert jac_tuple(hop_R) == node.oR and jac_tuple(hop_S) == node.oS
        return node


def target(kind, rng, n, bound, stride):
    span = 2 * stride
    steps = (bound + stride) // span
    # the giant points the table stores, -i*span*G for 1 <= i <= ceil(N/2),
    # N = steps: the ones the walk reads
    stored = max((steps + 1) // 2, 1)
    if kind == "above the bound":
        # the baby table and the last window reach this far
        return rng.randint(bound + 1, steps * span + stride)
    return {"bound": bound, "bound + 1": bound + 1, "n - 1": n - 1,
            # M = -(giant point i), the centre of window i*span.  For the
            # first, M - h*G (h = ceil(N/2)*span, the middle window's centre)
            # is stored point ceil(N/2) - 1 itself, rmap's equal-x branch,
            # or the identity when that is 0; for the last stored
            # one, ceil(N/2), it is the identity: M is h*G
            "-first giant": span, "-last giant": stored * span,
            # M is a stored giant point itself, whose log lies far above the
            # bound: M - h*G is -(i + ceil(N/2))*span*G, past every stored
            # point, so no window matches and the search runs to its end
            "+giant": n - rng.randint(1, stored) * span,
            "within": rng.randint(0, bound)}[kind]


def settle(case, total, bound):
    """Decrypt a hostile aggregate of total: "found" when it returns the
    true sum within the bound, "refused" when it raises an ecagg error."""
    node = case.aggregate(total)
    assert node.m == total % case.n
    if node.m <= bound:
        assert decrypt(case.x, node.ct, bound) == node.m, (total, bound)
        return "found"
    with pytest.raises(Error):
        decrypt(case.x, node.ct, bound)
    return "refused"


@pytest.mark.parametrize("name", CURVES)
def test_hostile_aggregates_decrypt_to_the_sum_or_fail(name):
    make, bounds = CURVES[name]
    c = make()
    rng = seeded(name)
    x = rng.randrange(1, c.order_n)
    case = Case(c, x, rng)
    outcomes = set()
    for kind, bound in product(TARGETS, bounds):
        stride = bsgs_cache(c, bound)[0]
        total = target(kind, rng, c.order_n, bound, stride)
        outcomes.add((kind, settle(case, total, bound)))
    # the first window's centre and the middle one's found, a giant point's
    # own log refused; test_centre_targets_decrypt_to_the_sum_or_fail takes
    # the equal-x branch at every pair, both ways, and reaches the last window
    assert {("-first giant", "found"), ("-last giant", "found"), ("+giant", "refused"),
            ("bound", "found"), ("bound + 1", "refused"),
            ("above the bound", "refused")} <= outcomes
    assert case.seen == {*GROUPS, "group", "itself", "mirror"}
    assert case.paths <= FOLD_PATHS
    if len(bounds) > 1:
        # the tiny curves' 32 or more aggregates reach every path
        assert case.paths == FOLD_PATHS


def test_centre_targets_decrypt_to_the_sum_or_fail():
    # the search pairs its windows about the middle one, h = half*2*stride.
    # Aggregates of h make M' = M - h*G the identity, and of h +- k*2*stride
    # make M' a giant point or its negative (rmap's equal-x branch) for
    # every pair k with that window; h - (half + 1)*2*stride lies below 0.
    # Fresh secp160r1 tables with 1 giant step (h = 1024 above the bound
    # 1000), 2 (the one pair's window at 4096, above the bound 4000) and 5
    # (pair 2, the first one walked, has both windows)
    outcomes = set()
    for bound in (1000, 4000, 80000):
        c = builtin_curve()
        stride = bsgs_cache(c, bound)[0]
        span = 2 * stride
        steps = _giant_steps(bound, stride)
        half = (steps + 1) // 2
        h = half * span
        rng = seeded(f"centre {bound}")
        case = Case(c, rng.randrange(1, c.order_n), rng)
        totals = [("centre", h)]
        totals += [("centre + giant", h + k * span) for k in range(1, steps // 2 + 1)]
        totals += [("centre - giant", h - k * span) for k in (*range(1, half), half + 1)]
        for kind, total in totals:
            outcomes.add((kind, settle(case, total, bound)))
    assert outcomes == set(product(("centre", "centre + giant", "centre - giant"),
                                   ("found", "refused")))


def largest_bound(c):
    """The largest search bound bsgs_cache accepts on a fresh curve c: every
    bound from the group order down is refused until that one is built."""
    for bound in range(c.order_n, -1, -1):
        try:
            bsgs_cache(c, bound)
        except MessageTooLarge:
            continue
        return bound


@pytest.mark.parametrize("name", ["tiny13", "tiny13a2"])
def test_largest_accepted_bound_decrypts(name):
    # the bound, its window edges and a sample below it decrypt; neither
    # the first giant point nor n - 1 does, nor the bound + 1, which at this
    # bound is the log of the last giant point -steps*2*stride*G: the gate
    # stops where a giant point's own log would enter the bound
    c = CURVES[name][0]()
    bound = largest_bound(c)
    assert bound == CURVES[name][1][-1]
    stride = bsgs_cache(c, bound)[0]
    assert bound + 1 == c.order_n - _giant_steps(bound, stride) * 2 * stride
    rng = seeded(name + " largest")
    x = rng.randrange(1, c.order_n)
    Y = to_affine(mul_binary(x, c.G))
    found = {0, 1, stride - 1, stride, stride + 1, 2 * stride - 1, 2 * stride, 2 * stride + 1,
             bound - 1, bound, *(rng.randint(0, bound) for _ in range(24))}
    for m in sorted(found):
        assert decrypt(x, encrypt(Y, m, rng), bound) == m
    for m in (bound + 1, c.order_n - 2 * stride, c.order_n - 1):
        with pytest.raises(NotFound):
            decrypt(x, encrypt(Y, m, rng), bound)


@pytest.mark.parametrize("bound", [4000, 2**24 - 1])
def test_not_found_costs_at_most_the_full_search(bound, monkeypatch):
    # under the wrong key the search walks to its end, and no further.  The
    # shift M' = M - h*G is one mixed addition (1 ECADD, 11 multiplies) and
    # M and M' share one inversion (3 + 2*4 multiplies); then steps // 2
    # pairs of windows in batches of _GIANT_BATCH, one inversion and
    # 3*(size - 1) multiplies each, and steps - 1 windows at one ECADD and
    # 2 multiplies: steps ECADDs in all.  No window's x is in the baby table
    c = builtin_curve()
    rng = seeded(f"wrong key {bound}")
    x = rng.randrange(1, c.order_n)
    ct = encrypt(to_affine(mul_binary(x, c.G)), 7, rng)
    spent = []

    def counted(M, max_value):
        with tally() as ops:
            spent.append(ops)
            return rmap(M, max_value)

    monkeypatch.setattr(elgamal, "rmap", counted)
    with pytest.raises(NotFound):
        decrypt(x % (c.order_n - 1) + 1, ct, bound)
    steps = _giant_steps(bound, bsgs_cache(c, bound)[0])
    assert steps == {4000: 2, 2**24 - 1: 512}[bound]
    pairs = steps // 2
    batches = -(-pairs // _GIANT_BATCH)
    [ops] = spent
    assert (ops.ecadd, ops.ecdbl, ops.fe_mul, ops.fe_inv) == (
        steps, 0, 22 + 3 * (pairs - batches) + 2 * (steps - 1), 1 + batches)
    assert ops.fe_mul == {4000: 24, 2**24 - 1: 1788}[bound]


@pytest.mark.parametrize("name", ["tiny13", "secp160r1"])
def test_normalizing_a_mix_of_z(name):
    # Z = 0 with junk X and Y, Z = 1, and general Z from rescaled oracle
    # points: one inversion shared by the general ones and 4 + 3
    # multiplications each, 3 fewer for the first; to_affine, a batch of
    # one, costs 1 inversion and 4 multiplications or nothing
    c = CURVES[name][0]()
    p, a = o_of(c)
    g = as_tuple(c.G)
    rng = seeded(name + " normalize")
    for _ in range(20):
        points, want = [], []
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            if kind == 0:
                points.append(JacobianPoint(c, rng.randrange(p), rng.randrange(p), 0))
                want.append(None)
                continue
            T = o_mul(rng.randrange(1, c.order_n), g, p, a)
            want.append(T)
            if kind == 1:
                points.append(JacobianPoint(c, T[0], T[1], 1))
            else:
                z = rng.randrange(2, p)
                points.append(JacobianPoint(c, T[0] * z * z % p, T[1] * z ** 3 % p, z))
        general = sum(Q.Z not in (0, 1) for Q in points)
        with tally() as ops:
            got = to_affine_batch(points)
        assert [as_tuple(P) for P in got] == want
        assert (ops.fe_inv, ops.fe_mul) == ((1, 7 * general - 3) if general else (0, 0))
        for Q, T in zip(points, want):
            with tally() as ops:
                assert as_tuple(to_affine(Q)) == T
            assert (ops.fe_inv, ops.fe_mul) == ((1, 4) if Q.Z not in (0, 1) else (0, 0))
