"""Seeded mutation fuzzing of every decoder of outside input.

Ciphertexts, scenarios and key files arrive from outside the program;
tables and curve configs are decoded as strictly.  Each mutant must either
decode or raise an ecagg.errors.Error subclass; any other exception is a
defect.  The mutants are a fixed function of the decoder's name, so a
failure reproduces.
"""

import random
from importlib import resources

import pytest

from ecagg.aggsim import load_scenario, scenario_from_text
from ecagg.curve import curve_from_config
from ecagg.elgamal import (
    ct_from_bytes,
    ct_identity,
    ct_to_bytes,
    encrypt,
    keygen,
    load_public_key,
    load_secret_key,
    save_keypair,
)
from ecagg.errors import Error
from ecagg.scalarmul import build_table, table_from_bytes, table_to_bytes

MUTANTS = 500
# bytes that matter to the formats: separators, signs, prefixes, hex digits,
# point tags and invalid UTF-8
INTERESTING = b"=\n#,- 0x9af\x00\x04\xff"


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte-level edits: flip, replace, delete, insert, truncate."""
    b = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(b) + 1)
        op = rng.randrange(5)
        if op == 4 or i == len(b):
            b.insert(i, rng.choice(INTERESTING) if rng.random() < 0.5 else rng.randrange(256))
        elif op == 0:
            b[i] ^= 1 << rng.randrange(8)
        elif op == 1:
            b[i] = rng.choice(INTERESTING)
        elif op == 2:
            del b[i]
        else:
            del b[i:]
    return bytes(b)


@pytest.fixture(scope="module")
def decoders(curve, tmp_path_factory):
    """name -> (valid input bytes, decoder taking bytes)."""
    rng = random.Random(0xF022)
    keys = keygen(rng, curve)
    tmp = tmp_path_factory.mktemp("fuzz")
    pub, sec = save_keypair(keys, tmp / "seed")
    data = resources.files("ecagg").joinpath("data")

    def via_file(load):
        def decode(b):
            path = tmp / "mutant"
            path.write_bytes(b)
            return load(path)
        return decode

    return {
        "ciphertext": (ct_to_bytes(encrypt(keys.public_Y, 5, rng)),
                       lambda b: ct_from_bytes(b, curve)),
        "ciphertext_identity": (ct_to_bytes(ct_identity(curve)),
                                lambda b: ct_from_bytes(b, curve)),
        "table": (table_to_bytes(build_table(curve.G, 2, 3)),
                  lambda b: table_from_bytes(b, curve)),
        "scenario": (data.joinpath("demo.scenario").read_bytes(),
                     lambda b: scenario_from_text(b.decode("latin-1"))),
        "scenario_file": (data.joinpath("demo.scenario").read_bytes(), via_file(load_scenario)),
        "curve": (data.joinpath("secp160r1.curve").read_bytes(),
                  lambda b: curve_from_config(b.decode("latin-1"))),
        "public_key": (pub.read_bytes(), via_file(load_public_key)),
        "secret_key": (sec.read_bytes(), via_file(load_secret_key)),
    }


@pytest.mark.parametrize("name", [
    "ciphertext", "ciphertext_identity", "table", "scenario", "scenario_file",
    "curve", "public_key", "secret_key"])
def test_decoder_mutants_raise_only_library_errors(decoders, name):
    valid, decode = decoders[name]
    decode(valid)
    rng = random.Random(f"fuzz:{name}")
    rejected = 0
    for _ in range(MUTANTS):
        mutant = mutate(valid, rng)
        try:
            decode(mutant)
        except Error:
            rejected += 1
        except Exception as e:  # noqa: BLE001 - any other type is the finding
            pytest.fail(f"{name}: {type(e).__name__}: {e} on mutant {mutant!r}")
    # the mutations must reach the checks, not all land in comments
    assert rejected > MUTANTS // 4
