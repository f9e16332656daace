"""Command-line front end: key management, file-level encryption, the
aggregation simulator, and an operation-count benchmark.

The benchmark reports ECADD/ECDBL/field-multiplication counts per
configuration instead of asserting hardware timings; wall-clock means are
printed for orientation only.  Exit codes: 0 success, 2 bad input or
configuration, 3 when decryption exhausts its search bound.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import aggsim, elgamal, scalarmul
from .counters import tally
from .curve import builtin_curve, load_curve
from .errors import BadConfig, Error, NotFound
from .field import fe_from_int, fe_inv, fe_mul


def _make_rng(seed_hex: str | None) -> random.Random:
    if seed_hex is None:
        return random.Random()
    try:
        return random.Random(int(seed_hex, 16))
    except ValueError:
        raise BadConfig(f"seed {seed_hex!r} is not hexadecimal") from None


def cmd_keygen(args) -> int:
    curve = load_curve(args.curve)
    # key files name their curve, and the other commands resolve that name
    # to the built-in curve: refuse a curve that name would not reproduce
    shipped = builtin_curve(curve.name)
    if ((curve.field.p, curve.a, curve.b, curve.G, curve.order_n)
            != (shipped.field.p, shipped.a, shipped.b, shipped.G, shipped.order_n)):
        raise BadConfig(f"curve {curve.name!r} differs from the built-in curve of that name")
    rng = _make_rng(args.seed)
    kp = elgamal.keygen(rng, curve)
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
    curve = None
    total = None
    for path in args.inputs:
        data = Path(path).read_bytes()
        if curve is None:
            curve = builtin_curve()
        ct = elgamal.ct_from_bytes(data, curve)
        total = ct if total is None else elgamal.ct_add(total, ct)
    if total is None:
        raise BadConfig("no input ciphertexts")
    Path(args.out).write_bytes(elgamal.ct_to_bytes(total))
    return 0


def cmd_decrypt(args) -> int:
    x, curve = elgamal.load_secret_key(args.sec)
    ct = elgamal.ct_from_bytes(Path(args.inp).read_bytes(), curve)
    print(elgamal.decrypt(x, ct, args.max))
    return 0


def cmd_simulate(args) -> int:
    scenario = aggsim.load_scenario(args.scenario)
    rng = _make_rng(args.seed)
    curve = builtin_curve()
    keys = elgamal.keygen(rng, curve)
    result = aggsim.run_round(scenario, keys, rng)
    sys.stdout.write(aggsim.emit_report(result))
    return 0


# ---------------------------------------------------------------------------
# Benchmark.

@dataclass
class BenchRow:
    label: str
    t: int
    w: int
    prec_points: int
    trials: int
    ecadd_mean: float
    ecadd_sd: float
    ecdbl_mean: float
    ecdbl_sd: float
    femul_mean: float
    femul_sd: float
    feinv_mean: float
    wall_ms: float


def _parse_config(token: str) -> tuple[str, int, int, bool]:
    """Returns (kind, t, w, w_defaulted)."""
    name, _, params = token.partition(":")
    t, w, w_given = 1, 2, False
    for part in params.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if key == "t":
            t = int(value)
        elif key == "w":
            w = int(value)
            w_given = True
        else:
            raise BadConfig(f"unknown parameter {key!r} in config {token!r}")
    if name == "binary":
        return "binary", 1, 0, False
    if name.startswith("mof") and name[3:].isdigit():
        return "mof", 1, int(name[3:]), True
    if name == "interleave":
        return "interleave", t, w, not w_given
    if name == "elgamal":
        return "elgamal", t, w, not w_given
    raise BadConfig(f"unknown bench config {token!r}")


def _bench_config(token: str, curve, scalars, rng) -> tuple[BenchRow, bool]:
    kind, t, w, w_defaulted = _parse_config(token)
    prec = 0
    table = None
    keys = None
    if kind in ("interleave", "elgamal"):
        table = scalarmul.build_table(curve.G, t, w)
        prec = table.extra_points
    if kind == "elgamal":
        keys = elgamal.keygen(rng, curve)
    samples, times = [], []
    for k in scalars:
        with tally() as ops:
            t0 = time.perf_counter()
            if kind == "binary":
                scalarmul.mul_binary(k, curve.G)
            elif kind == "mof":
                scalarmul.mul_signed(k, curve.G, w)
            elif kind == "interleave":
                scalarmul.mul_interleave(k, table)
            else:
                elgamal.encrypt(keys.public_Y, rng.getrandbits(8), rng, g_table=table)
            times.append(time.perf_counter() - t0)
        samples.append((ops.ecadd, ops.ecdbl, ops.fe_mul, ops.fe_inv))
    adds, dbls, muls, invs = zip(*samples)

    def stat(xs):
        return (statistics.fmean(xs), statistics.pstdev(xs) if len(xs) > 1 else 0.0)

    row = BenchRow(token, t, w, prec, len(scalars), *stat(adds), *stat(dbls), *stat(muls),
                   statistics.fmean(invs), statistics.fmean(times) * 1e3)
    return row, w_defaulted and kind in ("interleave", "elgamal")


def _inv_mult_ratio(curve, rng, samples: int = 200) -> float:
    """Wall-time cost of one inversion in units of one multiplication."""
    f = curve.field
    elems = [fe_from_int(rng.randrange(1, f.p), f) for _ in range(samples)]
    t0 = time.perf_counter()
    for e in elems:
        fe_mul(e, e)
    t_mul = time.perf_counter() - t0
    t0 = time.perf_counter()
    for e in elems:
        fe_inv(e)
    t_inv = time.perf_counter() - t0
    return t_inv / t_mul if t_mul > 0 else float("nan")


def cmd_bench(args) -> int:
    curve = load_curve(args.curve)
    if args.trials < 1:
        raise BadConfig("trials must be at least 1")
    rng = _make_rng(args.seed)
    scalars = [rng.getrandbits(curve.field.n) for _ in range(args.trials)]
    rows = []
    any_defaulted = False
    for token in args.configs:
        row, defaulted = _bench_config(token, curve, scalars, rng)
        rows.append(row)
        any_defaulted = any_defaulted or defaulted
    header = (f"{'config':<22} {'t':>2} {'w':>2} {'prec':>4} {'trials':>6} "
              f"{'ecadd':>8} {'sd':>6} {'ecdbl':>8} {'sd':>6} {'fe_mul':>9} {'sd':>7} {'fe_inv':>6} "
              f"{'ms':>8}")
    print(header)
    for r in rows:
        print(f"{r.label:<22} {r.t:>2} {r.w:>2} {r.prec_points:>4} {r.trials:>6} "
              f"{r.ecadd_mean:>8.1f} {r.ecadd_sd:>6.1f} {r.ecdbl_mean:>8.1f} {r.ecdbl_sd:>6.1f} "
              f"{r.femul_mean:>9.1f} {r.femul_sd:>7.1f} {r.feinv_mean:>6.1f} {r.wall_ms:>8.3f}")
    print(f"inv/mult wall-time ratio: {_inv_mult_ratio(curve, rng):.1f} (measured, not asserted)")
    if any_defaulted:
        print("note: rows without an explicit w use width 2")
    if args.csv:
        lines = ["config,t,w,prec_points,trials,ecadd_mean,ecadd_sd,ecdbl_mean,ecdbl_sd,"
                 "femul_mean,femul_sd,feinv_mean,wall_ms"]
        for r in rows:
            lines.append(f"{r.label},{r.t},{r.w},{r.prec_points},{r.trials},"
                         f"{r.ecadd_mean:.3f},{r.ecadd_sd:.3f},{r.ecdbl_mean:.3f},"
                         f"{r.ecdbl_sd:.3f},{r.femul_mean:.3f},{r.femul_sd:.3f},"
                         f"{r.feinv_mean:.3f},{r.wall_ms:.3f}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecagg",
        description="Additive homomorphic encryption on an elliptic curve, "
                    "with an aggregation simulator and an operation-count benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--curve", required=True, help="curve config file")
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
    p.add_argument("--curve", required=True, help="curve config file")
    p.add_argument("--trials", required=True, type=int, help="trials per config")
    p.add_argument("--configs", required=True, nargs="+",
                   help="e.g. binary mof2 interleave:t=2,w=2 elgamal:t=2,w=2")
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
    except (Error, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
