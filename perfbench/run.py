"""The ecagg benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload relay-fold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ecagg is imported from ``src/`` next to
this directory.  ``--trace 0`` measures the end-to-end metrics with tracing
off.  ``--trace 1`` spends half of ``--seconds`` untraced and half traced,
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is the result; the lines before it restate every metric
with its unit, the sample count, ``failed_frac``, the op-count fingerprint
and the environment.  The full record, and in traced runs every span, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# the op-count fingerprint sums the counters over a loop's first items, which
# every run completes however short it is
FINGERPRINT_ITEMS = 8
COUNTERS = ("ecadd", "ecdbl", "fe_mul", "fe_inv")

# (module, name, span label): the module-level names through which one layer
# calls the next.  Labels name the layer that does the work.
TRACE_POINTS = (
    ("aggsim", "run_round", "aggsim.run_round"),
    ("aggsim", "encrypt", "elgamal.encrypt"),
    ("aggsim", "ct_to_bytes", "elgamal.ct_to_bytes"),
    ("aggsim", "ct_from_bytes", "elgamal.ct_from_bytes"),
    ("aggsim", "ct_add", "elgamal.ct_add"),
    ("aggsim", "decrypt", "elgamal.decrypt"),
    ("elgamal", "ct_to_bytes", "elgamal.ct_to_bytes"),
    ("elgamal", "ct_from_bytes", "elgamal.ct_from_bytes"),
    ("elgamal", "ct_add", "elgamal.ct_add"),
    ("elgamal", "decrypt", "elgamal.decrypt"),
    ("elgamal", "rmap", "elgamal.rmap"),
    ("elgamal", "mul_interleave", "scalarmul.interleave"),
    ("elgamal", "mul_signed", "scalarmul.signed"),
    ("elgamal", "mul_binary", "scalarmul.binary"),
    ("elgamal", "to_affine", "curve.to_affine"),
    ("elgamal", "decode_point", "curve.decode"),
    ("elgamal", "ec_add_jjj", "curve.add_jjj"),
    ("elgamal", "ec_add_ajj", "curve.add_ajj"),
)
ITEM_LABEL = "bench.item"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_ecagg():
    """Put this checkout's src/ first on the path; fail unless ecagg comes from it."""
    src = ROOT / "src"
    if not (src / "ecagg" / "__init__.py").is_file():
        raise SystemExit(f"error: no ecagg sources under {src}")
    sys.path.insert(0, str(src))
    import ecagg
    if Path(ecagg.__file__).resolve().parent != (src / "ecagg").resolve():
        raise SystemExit(f"error: imported ecagg from {ecagg.__file__}, not {src}")


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ecagg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_commit": commit, "source_sha256": digest.hexdigest()}


class Samples:
    """Per-item wall latency, calibration factor, verdict, counter deltas and
    wire bytes of one loop."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.factor: list[float] = []
        self.ok: list[bool] = []
        self.counts: list[tuple[int, ...]] = []
        self.wire: list[int] = []

    def calibrated_ms(self) -> list[float]:
        return [ns * f / 1e6 for ns, f in zip(self.latency_ns, self.factor)]

    def fingerprint(self) -> dict:
        head = self.counts[:FINGERPRINT_ITEMS]
        return {name: sum(c[k] for c in head) for k, name in enumerate(COUNTERS)}


def snapshot(ops) -> tuple[int, ...]:
    return tuple(getattr(ops, name) for name in COUNTERS)


def closed_loop(workload, run, seconds: float, ops, on_item=None) -> Samples:
    """Run items 0, 1, ... one at a time for at least ``seconds``; the
    calibration kernel runs between items, outside the timed calls."""
    from ecagg.errors import Error

    s = Samples()
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    ref = calibrate.kernel()
    i = 0
    while i < FINGERPRINT_ITEMS or time.perf_counter() < deadline:
        args = workload.inputs(i)
        if on_item:
            on_item(i)
        c0 = snapshot(ops)
        t0 = clock()
        try:
            out = run(*args)
        except Error:
            out = None
        t1 = clock()
        c1 = snapshot(ops)
        after = calibrate.kernel()
        s.factor.append(calibrate.factor(ref, after, workload.inv_share))
        ref = after
        try:
            ok, wire = (False, 0) if out is None else workload.verify(i, out)
        except Error:
            ok, wire = False, 0
        s.latency_ns.append(t1 - t0)
        s.ok.append(ok)
        s.counts.append(tuple(b - a for a, b in zip(c0, c1)))
        s.wire.append(wire)
        i += 1
    return s


def first_item_counts(workload, ops) -> tuple[int, ...]:
    """Counter deltas of item 0, run once outside any loop."""
    args = workload.inputs(0)
    c0 = snapshot(ops)
    workload.run(*args)
    return tuple(b - a for a, b in zip(c0, snapshot(ops)))


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(s: Samples, setups) -> dict:
    """End-to-end metrics, every time at reference speed, each as (value, unit)."""
    lat_ms = s.calibrated_ms()
    return {
        "latency_ms.p50": (statistics.median(lat_ms), "ms"),
        "latency_ms.p90": (p90(lat_ms), "ms"),
        "throughput_per_s": (sum(s.ok) / (sum(lat_ms) / 1e3), "1/s"),
        "setup_s": (statistics.median(st.total_s for st in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def field_timings(curve, seed: int) -> tuple[float, float]:
    """ns per public mod_mul and us per mod_inv on random canonical operands,
    at reference speed, each the median of five timing loops."""
    from ecagg.field import mod_inv, mod_mul

    f = curve.field
    rng = random.Random(f"{seed}:field")
    xs = [rng.randrange(1, f.p) for _ in range(2001)]

    def muls():
        for k in range(2000):
            mod_mul(f, xs[k], xs[k + 1])

    def invs():
        for k in range(200):
            mod_inv(f, xs[k])

    mul_ns, inv_us = [], []
    for _ in range(5):
        _, wall, scale = calibrate.timed(0.0, muls)
        mul_ns.append(wall * scale / 2000)
        _, wall, scale = calibrate.timed(1.0, invs)
        inv_us.append(wall * scale / 200 / 1e3)
    return statistics.median(mul_ns), statistics.median(inv_us)


def role_phases(children: list[tuple[str, int]]) -> dict[str, int]:
    """Attribute run_round's direct child spans to leaf, fold or reader work.

    encrypt, ct_add and decrypt mark a role.  Serializing belongs to the step
    that produced the ciphertext, the nearest marker before it; decoding to
    the step that consumes it, the nearest marker after it.
    """
    markers = {"elgamal.encrypt": "leaf", "elgamal.ct_add": "fold", "elgamal.decrypt": "reader"}
    roles = [markers.get(label) for label, _ in children]
    out = {"leaf": 0, "fold": 0, "reader": 0}
    for k, (label, ns) in enumerate(children):
        role = roles[k]
        if role is None:
            if label == "elgamal.ct_from_bytes":
                role = next((r for r in roles[k + 1:] if r), "fold")
            else:
                role = next((r for r in reversed(roles[:k]) if r), "fold")
        out[role] += ns
    return out


def per_layer(tracer, own: list[int], s: Samples, setups, mul_ns: float,
              inv_us: float) -> dict:
    """Per-item layer metrics of a traced loop, each as (value, unit); span
    times are scaled by their item's calibration factor."""
    c = tracer.cols
    labels = [tracer.labels[k] for k in c["label"]]
    parent = c["parent"]
    scale = [s.factor[i] for i in c["item"]]
    duration = [(e - b) * f for b, e, f in zip(c["start"], c["end"], scale)]
    items = len(s.latency_ns)
    self_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, list[float]] = {}
    rounds: dict[int, list[tuple[str, float]]] = {}
    rmap_steps = 0
    for k, label in enumerate(labels):
        self_ns[label] = self_ns.get(label, 0) + own[k] * scale[k]
        calls[label] = calls.get(label, 0) + 1
        inclusive.setdefault(label, []).append(duration[k])
        up = labels[parent[k]] if parent[k] >= 0 else None
        if up == "aggsim.run_round":
            rounds.setdefault(parent[k], []).append((label, duration[k]))
        elif up == "elgamal.rmap" and label == "curve.to_affine":
            rmap_steps += 1
    decrypts = calls.get("elgamal.decrypt", 0)
    phases = {"leaf": 0, "fold": 0, "reader": 0}
    for children in rounds.values():
        for role, ns in role_phases(children).items():
            phases[role] += ns
    n_rounds = max(calls.get("aggsim.run_round", 0), 1)
    ops = {name: sum(ct[k] for ct in s.counts) / items for k, name in enumerate(COUNTERS)}

    m = {
        "field.fe_mul": (ops["fe_mul"], "count"),
        "field.fe_inv": (ops["fe_inv"], "count"),
        "field.mul_ns": (mul_ns, "ns"),
        "field.inv_us": (inv_us, "us"),
        # computed, not measured: counts times the timing-loop costs
        "field.computed_ms": ((ops["fe_mul"] * mul_ns + ops["fe_inv"] * inv_us * 1e3) / 1e6,
                              "ms"),
        "curve.ecadd": (ops["ecadd"], "count"),
        "curve.ecdbl": (ops["ecdbl"], "count"),
    }
    for label in ("curve.to_affine", "curve.decode", "curve.add_jjj", "curve.add_ajj",
                  "scalarmul.interleave", "scalarmul.signed", "scalarmul.binary"):
        m[f"{label}_us"] = (self_ns.get(label, 0) / items / 1e3, "us")
        m[f"{label}_calls"] = (calls.get(label, 0) / items, "count")
    m["scalarmul.table_build_s"] = (statistics.median(t.table_build_s for t in setups), "s")
    m["elgamal.bsgs_build_s"] = (statistics.median(t.bsgs_build_s for t in setups), "s")
    for op in ("encrypt", "ct_to_bytes", "ct_from_bytes", "ct_add", "decrypt"):
        durs = inclusive.get(f"elgamal.{op}")
        m[f"elgamal.{op}_us"] = (statistics.median(durs) / 1e3 if durs else 0.0, "us")
    m["elgamal.rmap_steps"] = (rmap_steps / decrypts if decrypts else 0.0, "count")
    m["elgamal.decrypts_per_rmap_step"] = (decrypts / rmap_steps if rmap_steps else 0.0, "ratio")
    m["aggsim.self_ms"] = (self_ns.get("aggsim.run_round", 0) / n_rounds / 1e6, "ms")
    for role, ns in phases.items():
        m[f"aggsim.{role}_ms"] = (ns / n_rounds / 1e6, "ms")
    m["aggsim.wire_bytes"] = (sum(s.wire) / items, "bytes")
    return m


def item_accounting_ok(tracer, own: list[int], latency_ns: list[int]) -> bool:
    """The self times of each item's spans sum to that item's traced latency."""
    sums = [0] * len(latency_ns)
    for k, item in enumerate(tracer.cols["item"]):
        sums[item] += own[k]
    return sums == latency_ns and all(t > 0 for t in latency_ns)


def traced_loop(workload, seconds: float, ops):
    """closed_loop with every TRACE_POINTS name wrapped and item spans as roots.

    A traced item's latency is its root span, so the item's spans account
    for all of it.  Returns the tracer, the samples, whether every name was
    restored, and the trace points that the program no longer has."""
    tracer = Tracer(ops)
    with tracer:
        missing = [f"{module}.{name}" for module, name, label in TRACE_POINTS
                   if not tracer.wrap(importlib.import_module(f"ecagg.{module}"), name, label)]
        wrapped = list(tracer.patched)

        def on_item(i):
            tracer.item = i

        samples = closed_loop(workload, tracer.traced(workload.run, ITEM_LABEL), seconds,
                              ops, on_item)
    c = tracer.cols
    samples.latency_ns = [e - b for b, e, p in zip(c["start"], c["end"], c["parent"]) if p < 0]
    restored = all(getattr(mod, name) is original for mod, name, original in wrapped)
    return tracer, samples, restored, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ecagg()
    from ecagg.counters import counters
    from workloads import SETUP_INV_SHARE, WORKLOADS, SetupTimes, setup

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    env_record = environment()
    setups = []
    for _ in range(SETUP_REPEATS):
        env = None  # one set-up alive at a time, so peak memory is that of one
        env, _, scale = calibrate.timed(SETUP_INV_SHARE, setup, args.seed)
        setups.append(SetupTimes(*(t * scale for t in env.timings)))
    workload = WORKLOADS[args.workload](env, args.seed)
    ops = counters()
    warm = first_item_counts(workload, ops)

    plain = closed_loop(workload, workload.run, args.seconds / (1 + args.trace), ops)
    checks = {"repeat_counts": plain.counts[0] == warm}
    report = {}
    if args.trace:
        tracer, measured, checks["names_restored"], missing = traced_loop(
            workload, args.seconds / 2, ops)
        own = tracer.self_times()
        checks["traced_counts_match"] = measured.fingerprint() == plain.fingerprint()
        checks["self_times_sum_to_items"] = item_accounting_ok(tracer, own,
                                                               measured.latency_ns)
        mul_ns, inv_us = field_timings(env.curve, args.seed)
        metrics = per_layer(tracer, own, measured, setups, mul_ns, inv_us)
        untraced = statistics.median(plain.calibrated_ms())
        traced = statistics.median(measured.calibrated_ms())
        report.update({"trace_overhead": traced / untraced,
                       "untraced_latency_ms.p50": untraced,
                       "traced_latency_ms.p50": traced, "spans": len(tracer),
                       "missing_trace_points": missing})
    else:
        metrics = end_to_end(plain, setups)
        measured = plain

    wall_ms = [ns / 1e6 for ns in measured.latency_ns]
    report.update({"wall_latency_ms.p50": statistics.median(wall_ms),
                   "wall_latency_ms.p90": p90(wall_ms),
                   "speed_factor.p50": statistics.median(measured.factor)})
    attempted = len(measured.ok)
    failed = attempted - sum(measured.ok)
    correct = failed == 0 and all(checks.values())
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "checks": checks,
        "fingerprint": {"items": FINGERPRINT_ITEMS, **plain.fingerprint()},
        "environment": env_record,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        tracer.dump(out_dir / f"spans-{args.workload}.tsv", own)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} items, "
          f"{failed} failed, failed_frac={failed / attempted} (closed loop, 1 caller)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} n={attempted}")
    print(f"  uncalibrated wall latency: p50 {report['wall_latency_ms.p50']:.6g} ms, "
          f"p90 {report['wall_latency_ms.p90']:.6g} ms; "
          f"median calibration factor {report['speed_factor.p50']:.4f}")
    if args.trace:
        print(f"  trace overhead (traced p50 / untraced p50): {report['trace_overhead']:.3f}")
        if missing:
            print(f"  trace points absent from ecagg, reported as 0: {', '.join(missing)}")
    print("fingerprint " + " ".join(f"{k}={v}" for k, v in report["fingerprint"].items()))
    print("checks " + " ".join(f"{k}={v}" for k, v in checks.items()))
    print("environment " + json.dumps(env_record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
