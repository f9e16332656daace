"""A dropped curve, with everything the pipeline made on it, is freed by
reference counting alone: no reference cycle, and no memory left behind."""

import gc
import importlib.resources
import random
import sys

from ecagg.aggsim import fold, load_scenario, run_round
from ecagg.curve import builtin_curve
from ecagg.elgamal import (
    KeyPair,
    ct_from_bytes,
    ct_to_bytes,
    decrypt,
    encrypt,
    keygen,
    load_public_key,
    load_secret_key,
    save_keypair,
)
from ecagg.scalarmul import fixed_base_table, table_from_bytes, table_to_bytes

# pymalloc blocks a dropped run may leave allocated once the free lists are
# emptied.  Kept, they would hold about 38,000 blocks (2,000 tuples of each
# length below 20, 80 lists, 80 dicts, 100 floats), more than a run keeps
# when its curves sit in reference cycles (about 35,700), so the check reads
# after a full collection, which empties them.  What stays is the op
# counters' totals and io's state for the text files a run opens: 6 to 11
# blocks measured on CPython 3.11.7.
KEPT_BLOCKS_MARGIN = 64


def _pipeline(prefix):
    """One pass of every stage on fresh curves: keys made, saved and loaded,
    two readings encrypted, folded and decrypted at the 2**24 bound, the
    key's table through its file format, and the demo round."""
    curve = builtin_curve()
    keys = keygen(random.Random(1), curve)
    pub, sec = save_keypair(keys, prefix)
    Y = load_public_key(pub)
    x, _ = load_secret_key(sec)
    rng = random.Random(2)
    total = fold([ct_to_bytes(encrypt(Y, m, rng)) for m in (3, 4)], Y.curve)
    assert decrypt(x, ct_from_bytes(total, Y.curve), 2**24 - 1) == 7
    table = table_from_bytes(table_to_bytes(fixed_base_table(Y)), Y.curve)
    assert table.signed == fixed_base_table(Y).signed
    scenario = load_scenario(importlib.resources.files("ecagg").joinpath("data/demo.scenario"))
    result = run_round(scenario, KeyPair(x, Y), rng, max_bits=16)
    assert result.recovered_sum == result.expected_sum == 63


def test_a_dropped_pipeline_leaves_no_cycle_and_no_memory(tmp_path):
    # the first pass fills what a process caches once: imports, codecs,
    # the package's data files
    _pipeline(tmp_path / "warm")
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        _pipeline(tmp_path / "run")
        # frozen objects are out of the collection's reach, so it empties
        # the free lists and frees nothing the run left, cycles included
        gc.freeze()
        try:
            gc.collect()
            kept = sys.getallocatedblocks() - before
        finally:
            gc.unfreeze()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert kept <= KEPT_BLOCKS_MARGIN, kept
