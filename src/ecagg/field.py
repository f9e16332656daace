"""Arithmetic in GF(p) for primes of the shape p = 2**n - c with small c.

The prime's shape makes reduction cheap: 2**n is congruent to c, so the high
half of any value can be folded into the low half (r_h*2**n + r_l becomes
r_h*c + r_l), and for c below 2**(n/2) two folds leave less than 2p.
Modular addition uses the same idea: instead of subtracting p after an
overflow, add c and drop the carry bit.  Neither ever divides by p.

Values are carried as Python integers.  The test suite checks every
operation against plain big-integer modular arithmetic.

mod_reduce and mod_mul stay as the paper's reference, checked against the
oracle and used by the element-level fe_* API.  The group law in the curve
module reduces with CPython's ``%`` instead: 0.47 us per 160-bit multiply and
reduce against 0.95 us for the substitution inlined (Python 3.11, 2-CPU
Xeon), as the division runs in C and each substitution pass in bytecode.
Inversion is ``pow(x, -1, p)``.
"""

from __future__ import annotations

import random

from .counters import counters
from .errors import NonCanonical, ZeroInverse


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin over 32 bases drawn from a generator seeded by m itself."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(m)
    for _ in range(32):
        a = rng.randrange(2, m - 1)
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class FieldParams:
    """The prime p = 2**n - c plus everything derived from its shape."""

    __slots__ = ("n", "c", "p", "mask", "byte_length")

    def __init__(self, n: int, c: int):
        # up to P-521's field, checked before 1 << (n // 2) and the primality test
        if not 4 <= n <= 521:
            raise ValueError("bit length n must be in [4, 521]")
        if c < 1:
            raise ValueError("c must be positive")
        if c >= 1 << (n // 2):
            # mod_reduce's two substitution passes are exact only while c
            # stays below 2**(n/2)
            raise ValueError("c must be below 2**(n/2)")
        p = (1 << n) - c
        if not is_probable_prime(p):
            raise ValueError(f"2**{n} - {c} is not prime")
        self.n = n
        self.c = c
        self.p = p
        self.mask = (1 << n) - 1
        self.byte_length = -(-n // 8)

    def __repr__(self):
        return f"FieldParams(n={self.n}, c={self.c:#x})"


class FieldElement:
    """A reduced residue in [0, p).  Immutable."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: FieldParams):
        if not 0 <= value < field.p:
            raise NonCanonical(f"value {value:#x} outside [0, p)")
        self.value = value
        self.field = field

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.value == self.value
            and other.field.p == self.field.p
        )

    def __repr__(self):
        return f"FieldElement({self.value:#x})"


def _same_field(a: FieldElement, b: FieldElement):
    if a.field is not b.field and a.field.p != b.field.p:
        raise ValueError("operands from different fields")


# ---------------------------------------------------------------------------
# Value-level core.  These take plain integers already known to be canonical;
# the FieldElement wrappers below add the boundary checks.

def mod_add(f: FieldParams, x: int, y: int) -> int:
    """(x + y) mod p via the add-c correction; never subtracts p."""
    r = x + y
    if r >= f.p:
        # r >= p, which covers an overflow of the n-bit word: add c, drop
        # the 2**n carry
        r = (r + f.c) & f.mask
    return r


def mod_sub(f: FieldParams, x: int, y: int) -> int:
    """(x - y) mod p; a borrow wraps at 2**n and then pays back c."""
    r = x - y
    if r < 0:
        r = (r & f.mask) - f.c
    return r


def mod_reduce(f: FieldParams, r: int) -> int:
    """Reduce a value below 2**(2n) by substituting 2**n -> c twice.

    With c < 2**(n/2), (c + 1)**2 <= 2**n: the first pass leaves r below
    (c + 1) * 2**n, the second below 2**n + c**2, which is at most 2*p, so
    one conditional add of c, dropping the carry, finishes.
    """
    n, c, mask = f.n, f.c, f.mask
    r = (r >> n) * c + (r & mask)
    r = (r >> n) * c + (r & mask)
    if r >= f.p:
        r = (r + c) & mask
    return r


def mod_mul(f: FieldParams, x: int, y: int) -> int:
    counters().fe_mul += 1
    return mod_reduce(f, x * y)


def mod_inv(f: FieldParams, x: int) -> int:
    """Inverse by pow(x, -1, p); reader-side and serialization cost only.

    19.6 us against 94 us for pow(x, p - 2, p) at 160 bits.
    """
    if x == 0:
        raise ZeroInverse("zero has no inverse")
    counters().fe_inv += 1
    return pow(x, -1, f.p)


def mod_inv_batch(f: FieldParams, xs: list[int]) -> list[int]:
    """Inverses of every element of xs for one inversion (Montgomery's trick).

    The prefix products x0*...*xk are inverted once at the end, and a walk
    back peels one factor per element: 1 inversion and 3(n - 1)
    multiplications for n elements.  Elements need not be reduced, but any
    that is 0 mod p makes the whole product 0 and raises ZeroInverse.
    """
    if not xs:
        return []
    p = f.p
    prefix = [xs[0] % p]
    for x in xs[1:]:
        prefix.append(prefix[-1] * x % p)
    inv = mod_inv(f, prefix[-1])
    out = [0] * len(xs)
    for k in range(len(xs) - 1, 0, -1):
        out[k] = inv * prefix[k - 1] % p
        inv = inv * xs[k] % p
    out[0] = inv
    counters().fe_mul += 3 * (len(xs) - 1)
    return out


# ---------------------------------------------------------------------------
# Element-level API.

def fe_add(a: FieldElement, b: FieldElement) -> FieldElement:
    _same_field(a, b)
    return FieldElement(mod_add(a.field, a.value, b.value), a.field)


def fe_sub(a: FieldElement, b: FieldElement) -> FieldElement:
    _same_field(a, b)
    return FieldElement(mod_sub(a.field, a.value, b.value), a.field)


def fe_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    _same_field(a, b)
    return FieldElement(mod_mul(a.field, a.value, b.value), a.field)


def fe_square(a: FieldElement) -> FieldElement:
    return FieldElement(mod_mul(a.field, a.value, a.value), a.field)


def fe_inv(a: FieldElement) -> FieldElement:
    return FieldElement(mod_inv(a.field, a.value), a.field)
