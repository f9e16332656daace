"""Seeded hostile aggregates: valid ciphertexts aimed at the edge cases of
folding, normalizing and searching.

An aggregator cannot tell a hostile child from an honest one, since any two
curve points encrypt some sum.  The generator below draws, as a fixed
function of the curve's name, children that are identical, opposite, or
the identity in one component.  It folds them the way aggregators do, some
through the wire and some still Jacobian, and aims the total at the
search's edges: exactly the bound, the bound + 1, n - 1, plus or minus a
giant step's point (rmap's equal-x branch), and a match above the bound in
the baby table or the last window.  Every intermediate R and S must equal
the affine oracle's, and the decryption must return the true sum when it
lies within the bound and raise an ecagg.errors.Error otherwise.
"""

import random
import zlib
from itertools import product

import pytest
from conftest import TINY, TINY_A2, as_tuple, jac_tuple, make_tiny, o_add, o_mul, o_of

from ecagg.counters import tally
from ecagg.curve import JacobianPoint, builtin_curve, to_affine, to_affine_batch
from ecagg.elgamal import Ciphertext, bsgs_cache, ct_add, ct_from_bytes, ct_to_bytes, decrypt
from ecagg.errors import Error
from ecagg.scalarmul import mul_binary

TARGETS = ("bound", "bound + 1", "n - 1", "-first giant", "-last giant", "+giant",
           "above the bound", "within")
# children are one to four groups of these, then one child that sets the total
GROUPS = ("plain", "identical", "opposite", "identity R", "identity S")

# name: (fresh curve, search bounds); the bounds stay below half the group
# order, as on every real curve
CURVES = {
    "tiny13": (lambda: make_tiny(TINY, "tiny13"), (0, 1, 100, 4000)),
    "tiny13a2": (lambda: make_tiny(TINY_A2, "tiny13a2"), (0, 100, 4000)),
    "secp160r1": (builtin_curve, (4000,)),
}


def seeded(name):
    return random.Random(zlib.crc32(name.encode()))


class Node:
    """A ciphertext, the scalars it hides (R = k*G, S = (m + x*k)*G, mod n)
    and the oracle's R and S."""

    def __init__(self, ct, k, m, oR, oS):
        self.ct, self.k, self.m, self.oR, self.oS = ct, k, m, oR, oS

    def check(self):
        assert jac_tuple(self.ct.R) == self.oR and jac_tuple(self.ct.S) == self.oS


class Case:
    def __init__(self, c, x, rng):
        self.c, self.x, self.rng = c, x, rng
        self.p, self.a = o_of(c)
        self.g = as_tuple(c.G)
        self.n = c.order_n
        self.seen = set()

    def child(self, k, m):
        k, m = k % self.n, m % self.n
        s = (m + self.x * k) % self.n
        ct = Ciphertext(mul_binary(k, self.c.G), mul_binary(s, self.c.G))
        return Node(ct, k, m, o_mul(k, self.g, self.p, self.a), o_mul(s, self.g, self.p, self.a))

    def wire(self, node):
        """node as an aggregator receives it half the time: encoded and
        decoded, so its points carry Z = 1 (or 0)."""
        if self.rng.random() < 0.5:
            node.ct = ct_from_bytes(ct_to_bytes(node.ct), self.c)
        return node

    def fold(self, left, right):
        ct = ct_add(left.ct, right.ct)
        node = Node(ct, (left.k + right.k) % self.n, (left.m + right.m) % self.n,
                    o_add(left.oR, right.oR, self.p, self.a),
                    o_add(left.oS, right.oS, self.p, self.a))
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
        child makes the hidden sum total."""
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
        return self.fold(acc, self.wire(last))


def target(kind, rng, n, bound, stride):
    span = 2 * stride
    steps = (bound + stride) // span
    if kind == "above the bound":
        # the baby table and the last window reach this far
        return rng.randint(bound + 1, steps * span + stride)
    return {"bound": bound, "bound + 1": bound + 1, "n - 1": n - 1,
            # M = -(giant point i): the step that lands on the identity
            "-first giant": span, "-last giant": max(steps, 1) * span,
            # M is giant point i itself, whose log lies far above the bound
            "+giant": n - rng.randint(1, max(steps, 1)) * span,
            "within": rng.randint(0, bound)}[kind]


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
        node = case.aggregate(total)
        assert node.m == total % c.order_n
        if node.m <= bound:
            assert decrypt(x, node.ct, bound) == node.m, (kind, bound)
            outcomes.add((kind, "found"))
        else:
            with pytest.raises(Error):
                decrypt(x, node.ct, bound)
            outcomes.add((kind, "refused"))
    # both sides of the giant branch: a landing within the bound and a
    # giant point whose log is above it
    assert {("-first giant", "found"), ("-last giant", "refused"), ("+giant", "refused"),
            ("bound", "found"), ("bound + 1", "refused"),
            ("above the bound", "refused")} <= outcomes
    assert case.seen == {*GROUPS, "group", "itself", "mirror"}


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
