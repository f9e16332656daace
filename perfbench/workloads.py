"""Seeded inputs, item runners and correctness checks for the workloads.

Every workload is a closed loop with one caller and one item in flight.
Inputs come from ``--seed`` alone and reach ecagg only as scenarios,
readings and ciphertext bytes.  An item splits into three calls so that the
timed and the traced region hold nothing but the program's own work:
``inputs(i)`` prepares item i, ``run(*inputs)`` is the timed call, and
``verify(i, out)`` checks the output against the generator's expected value
and returns ``(ok, ciphertext bytes decoded)``; it may raise an
``ecagg.errors.Error``, which counts the item as failed.

Item i always gets the same inputs, so a pool is cycled when a run outlasts
it, and the op counts of item i repeat exactly for a seed.

``inv_share`` is the share of an item's time spent in ``mod_inv``, measured
at the commit that defined the benchmark (fe_inv per item x the time of one
inversion / item time).  Calibration scales that share by the slowdown of
inversions and the rest by the slowdown of interpreter work; see
calibrate.py.  The shares are fixed so that calibration does not depend on
the program it measures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import NamedTuple

from ecagg import aggsim, elgamal, scalarmul
from ecagg.curve import CurveParams, builtin_curve

MAX_BITS = elgamal.DEFAULT_MAX_BITS
BOUND = (1 << MAX_BITS) - 1
# the BSGS build normalizes 2**14 points, one inversion each
SETUP_INV_SHARE = 0.82
FANOUT = 4


def _rng(seed: int, purpose: str) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{seed}:{purpose}")


class SetupTimes(NamedTuple):
    total_s: float
    table_build_s: float
    bsgs_build_s: float


@dataclass
class Setup:
    """A fresh curve with everything lazy already built, and its timings."""

    curve: CurveParams
    keys: elgamal.KeyPair
    timings: SetupTimes


def setup(seed: int) -> Setup:
    """Curve validation, keygen, the default fixed-base table and the BSGS
    cache for the default bound, on a fresh ``builtin_curve()``."""
    t0 = time.perf_counter()
    curve = builtin_curve()
    keys = elgamal.keygen(_rng(seed, "keys"), curve)
    t1 = time.perf_counter()
    scalarmul.default_table(curve)
    t2 = time.perf_counter()
    if elgamal.rmap(elgamal.map_message(1, curve), BOUND) != 1:
        raise RuntimeError("reverse mapping of 1*G did not return 1")
    t3 = time.perf_counter()
    return Setup(curve, keys, SetupTimes(t3 - t0, t2 - t1, t3 - t2))


def _scenario(readings: list[int], per_aggregator: int):
    """Reader over aggregators over leaves, as scenario text parsed by ecagg."""
    n_agg = len(readings) // per_aggregator
    blocks = [f"id = r\nrole = reader\nchildren = {', '.join(f'a{a}' for a in range(n_agg))}"]
    for a in range(n_agg):
        kids = range(a * per_aggregator, (a + 1) * per_aggregator)
        blocks.append(f"id = a{a}\nrole = aggregator\n"
                      f"children = {', '.join(f's{k}' for k in kids)}")
    blocks += [f"id = s{k}\nrole = leaf\nreading = {v}" for k, v in enumerate(readings)]
    return aggsim.scenario_from_text("\n\n".join(blocks) + "\n")


class SensorRound:
    """One ``aggsim.run_round`` per item over a two-level tree with 8-bit
    readings; the sum stays below 2**14, so the reader takes no giant step."""

    name = "sensor-round"
    inv_share = 0.04
    TREES = 32
    LEAVES = 16
    AGGREGATORS = 4

    def __init__(self, env: Setup, seed: int):
        rng = _rng(seed, self.name)
        self.keys = env.keys
        self.seed = seed
        self.trees = []
        for _ in range(self.TREES):
            readings = [rng.randrange(256) for _ in range(self.LEAVES)]
            self.trees.append((_scenario(readings, self.LEAVES // self.AGGREGATORS),
                               sum(readings)))

    def inputs(self, i: int):
        return self.trees[i % len(self.trees)][0], self.keys, _rng(self.seed, f"round{i}")

    @staticmethod
    def run(tree, keys, rng):
        return aggsim.run_round(tree, keys, rng)

    def verify(self, i: int, out) -> tuple[bool, int]:
        expected = self.trees[i % len(self.trees)][1]
        ok = out.recovered_sum == expected and out.expected_sum == expected
        return ok, sum(len(b) for b in out.ciphertexts.values())


def _encrypt_all(env: Setup, rng: random.Random, plaintexts: list[int]) -> list[bytes]:
    Y = env.keys.public_Y
    return [elgamal.ct_to_bytes(elgamal.encrypt(Y, m, rng)) for m in plaintexts]


def fold(leaves: list[bytes], curve: CurveParams) -> tuple[bytes, int]:
    """Fold ciphertext bytes up a fanout-4 tree; every aggregator runs the
    sequence of ``run_round``'s aggregator branch.  Returns the root bytes and the
    ciphertext bytes decoded on the way."""
    level = leaves
    decoded = 0
    while len(level) > 1:
        parents = []
        for k in range(0, len(level), FANOUT):
            folded = elgamal.ct_identity(curve)
            for data in level[k:k + FANOUT]:
                folded = elgamal.ct_add(folded, elgamal.ct_from_bytes(data, curve))
                decoded += len(data)
            parents.append(elgamal.ct_to_bytes(folded))
        level = parents
    return level[0], decoded


class RelayFold:
    """The aggregator path alone: each item folds a seeded subset of a pool
    of leaf ciphertexts up a fanout-4 tree; the root is decrypted outside
    the timed region, where a root that does not decrypt raises."""

    name = "relay-fold"
    inv_share = 0.5
    POOL = 320
    LEAVES = 256
    SUBSETS = 16

    def __init__(self, env: Setup, seed: int):
        rng = _rng(seed, self.name)
        self.curve = env.curve
        self.secret_x = env.keys.secret_x
        readings = [rng.randrange(256) for _ in range(self.POOL)]
        self.pool = _encrypt_all(env, rng, readings)
        self.subsets = []
        for _ in range(self.SUBSETS):
            idx = rng.sample(range(self.POOL), self.LEAVES)
            self.subsets.append(([self.pool[j] for j in idx], sum(readings[j] for j in idx)))
        self._verified: dict[int, bytes] = {}

    def inputs(self, i: int):
        return self.subsets[i % len(self.subsets)][0], self.curve

    run = staticmethod(fold)

    def verify(self, i: int, out) -> tuple[bool, int]:
        root, decoded = out
        k = i % len(self.subsets)
        if self._verified.get(k) != root:
            ct = elgamal.ct_from_bytes(root, self.curve)
            if elgamal.decrypt(self.secret_x, ct, BOUND) != self.subsets[k][1]:
                return False, decoded
            self._verified[k] = root
        return True, decoded


class ReaderDecrypt:
    """The reader alone: ``ct_from_bytes`` then ``decrypt`` at the default
    bound with a warm BSGS cache.

    Plaintexts are uniform on [0, 2**24), one from each of ``POOL`` equal
    strata in shuffled order, so every seed sees the same spread of giant
    step counts and a run's median does not hinge on a few draws.
    """

    name = "reader-decrypt"
    inv_share = 0.78
    POOL = 64

    def __init__(self, env: Setup, seed: int):
        rng = _rng(seed, self.name)
        self.curve = env.curve
        self.secret_x = env.keys.secret_x
        width = (BOUND + 1) // self.POOL
        self.plaintexts = [s * width + rng.randrange(width) for s in range(self.POOL)]
        rng.shuffle(self.plaintexts)
        self.pool = _encrypt_all(env, rng, self.plaintexts)

    def inputs(self, i: int):
        return self.pool[i % len(self.pool)], self.curve, self.secret_x

    @staticmethod
    def run(data, curve, secret_x):
        return elgamal.decrypt(secret_x, elgamal.ct_from_bytes(data, curve), BOUND)

    def verify(self, i: int, out) -> tuple[bool, int]:
        k = i % len(self.pool)
        return out == self.plaintexts[k], len(self.pool[k])


WORKLOADS = {w.name: w for w in (SensorRound, RelayFold, ReaderDecrypt)}
