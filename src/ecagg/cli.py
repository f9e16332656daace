"""Command-line front end: key management, file-level encryption, the
aggregation simulator, and an operation-count benchmark.

The benchmark reports ECADD/ECDBL/field-multiplication and inversion counts
per configuration and no wall time, which perfbench measures.  Exit codes:
0 success, 2 bad input or configuration, 3 when decryption exhausts its
search bound.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from pathlib import Path
from statistics import fmean, pstdev

from . import aggsim, elgamal, scalarmul
from .counters import FIELDS, tally
from .curve import builtin_curve
from .errors import BadConfig, Error, NotFound
from .textcfg import parse_kv


def _make_rng(seed_hex: str | None) -> random.Random:
    """A seeded generator for reproducible runs; without a seed, the
    operating system's, as secret keys and randomizers need."""
    if seed_hex is None:
        return random.SystemRandom()
    try:
        return random.Random(int(seed_hex, 16))
    except ValueError:
        raise BadConfig(f"seed {seed_hex!r} is not hexadecimal") from None


def cmd_keygen(args) -> int:
    kp = elgamal.keygen(_make_rng(args.seed), builtin_curve())
    pub, sec = elgamal.save_keypair(kp, args.out)
    print(f"wrote {pub} and {sec}")
    return 0


def cmd_encrypt(args) -> int:
    Y = elgamal.load_public_key(args.pub)
    rng = _make_rng(args.seed)
    ct = elgamal.encrypt(Y, args.msg, rng)
    Path(args.out).write_bytes(elgamal.ct_to_bytes(ct))
    return 0


def cmd_add(args) -> int:
    children = [Path(path).read_bytes() for path in args.inputs]
    Path(args.out).write_bytes(aggsim.fold(children, builtin_curve()))
    return 0


def cmd_decrypt(args) -> int:
    x, curve = elgamal.load_secret_key(args.sec)
    ct = elgamal.ct_from_bytes(Path(args.inp).read_bytes(), curve)
    print(elgamal.decrypt(x, ct, args.max))
    return 0


def cmd_simulate(args) -> int:
    scenario = aggsim.load_scenario(args.scenario)
    rng = _make_rng(args.seed)
    # validating the curve and keygen's public-key table come before the
    # round's setup tally starts, so their counts join the (setup) record here
    with tally() as before_round:
        keys = elgamal.keygen(rng, builtin_curve())
    result = aggsim.run_round(scenario, keys, rng)
    for f in FIELDS:
        setattr(result.setup, f, getattr(result.setup, f) + getattr(before_round, f))
    sys.stdout.write(aggsim.emit_report(result))
    return 0


# ---------------------------------------------------------------------------
# Benchmark.

# (table header, table format, CSV name) per column; the CSV writes every
# float to three decimals
_BENCH_COLUMNS = (
    ("config", "<22", "config"), ("t", ">2", "t"), ("w", ">2", "w"),
    ("prec", ">4", "prec_points"), ("trials", ">6", "trials"),
    ("ecadd", ">8.1f", "ecadd_mean"), ("sd", ">6.1f", "ecadd_sd"),
    ("ecdbl", ">8.1f", "ecdbl_mean"), ("sd", ">6.1f", "ecdbl_sd"),
    ("fe_mul", ">9.1f", "femul_mean"), ("sd", ">7.1f", "femul_sd"),
    ("fe_inv", ">6.1f", "feinv_mean"),
)


def _bench_config(token: str, curve, rng):
    """(t, w, stored points, one-trial callable of k) for a token such as
    binary, mof3, interleave:t=2,w=2 or elgamal."""
    name, _, params = token.partition(":")
    given = parse_kv(params.replace(",", "\n"), BadConfig)
    G = curve.G
    if name == "binary" and not given:
        return 1, 0, 0, lambda k: scalarmul.mul_binary(k, G)
    if name.startswith("mof") and name[3:].isdecimal() and not given:
        w = int(name[3:])
        if not 2 <= w <= scalarmul.MAX_RECODING_WIDTH:
            raise BadConfig(f"width {w} outside [2, {scalarmul.MAX_RECODING_WIDTH}] "
                            f"in config {token!r}")
        return 1, w, 0, lambda k: scalarmul.mul_signed(k, G, w)
    if name == "elgamal" and not given:
        # one encryption as the program runs it, over the cached tables
        Y = elgamal.keygen(rng, curve).public_Y
        table = scalarmul.default_table(curve)
        return (table.t, table.w, table.extra_points,
                lambda k: elgamal.encrypt(Y, rng.getrandbits(8), rng))
    if name != "interleave" or given.keys() != {"t", "w"}:
        raise BadConfig(f"unknown bench config {token!r} (interleave takes exactly t and w)")
    try:
        t, w = int(given["t"]), int(given["w"])
    except ValueError:
        raise BadConfig(f"t and w must be integers in config {token!r}") from None
    if not 1 <= t <= curve.field.n:
        raise BadConfig(f"track count {t} outside [1, {curve.field.n}] in config {token!r}")
    table = scalarmul.build_table(G, t, w)
    return t, w, table.extra_points, lambda k: scalarmul.mul_interleave(k, table)


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise BadConfig("trials must be at least 1")
    curve = builtin_curve()
    rng = _make_rng(args.seed)
    scalars = [rng.getrandbits(curve.field.n) for _ in range(args.trials)]
    # every token is checked, and its table or key built, before any trial
    configs = [(token, *_bench_config(token, curve, rng)) for token in args.configs]
    rows = []
    for token, t, w, prec, trial in configs:
        samples = []
        for k in scalars:
            with tally() as ops:
                trial(k)
            samples.append((ops.ecadd, ops.ecdbl, ops.fe_mul, ops.fe_inv))
        adds, dbls, muls, invs = zip(*samples)
        rows.append((token, t, w, prec, len(scalars),
                     *(s for xs in (adds, dbls, muls) for s in (fmean(xs), pstdev(xs))),
                     fmean(invs)))
    print(" ".join(format(head, spec.partition(".")[0]) for head, spec, _ in _BENCH_COLUMNS))
    for row in rows:
        print(" ".join(format(v, spec) for v, (_, spec, _) in zip(row, _BENCH_COLUMNS)))
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(
                [[name for _, _, name in _BENCH_COLUMNS]]
                + [[f"{v:.3f}" if isinstance(v, float) else v for v in row] for row in rows])
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecagg",
        description="Additive homomorphic encryption on an elliptic curve, "
                    "with an aggregation simulator and an operation-count benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--out", required=True, help="output prefix for .pub/.sec")
    p.add_argument("--seed", help="hex seed for reproducible keys")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt an integer to a ciphertext file")
    p.add_argument("--pub", required=True, help="public key file")
    p.add_argument("--msg", required=True, type=int, help="plaintext integer")
    p.add_argument("--out", required=True, help="ciphertext output file")
    p.add_argument("--seed", help="hex seed for reproducible randomness")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("add", help="fold ciphertext files homomorphically")
    p.add_argument("--in", dest="inputs", required=True, nargs="+",
                   help="input ciphertext files")
    p.add_argument("--out", required=True, help="output ciphertext file")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--sec", required=True, help="secret key file")
    p.add_argument("--in", dest="inp", required=True, help="input ciphertext file")
    p.add_argument("--max", required=True, type=int, help="largest plaintext to search")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("simulate", help="run one concealed-aggregation round")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--seed", help="hex seed; same seed, same report")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="operation-count benchmark")
    p.add_argument("--trials", required=True, type=int, help="trials per config")
    p.add_argument("--configs", required=True, nargs="+",
                   help="e.g. binary mof2 interleave:t=2,w=2 elgamal")
    p.add_argument("--seed", help="hex seed for the trial scalars")
    p.add_argument("--csv", help="also write rows as CSV to this path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotFound as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
