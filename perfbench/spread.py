"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads relay-fold ...]
                                [--trace 0] [--baseline perfbench/baseline.json]

Runs are sequential, one process at a time, with ``run_seconds`` from
BENCHMARK.json.  For every workload and metric it prints the median of the
per-seed values and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
beside a third of the metric's bound.  Traced runs add the tracing
overhead (traced p50 / untraced p50) as ``trace_overhead``.  ``--baseline``
also writes those medians and quartiles, with the environment of the last
run and each seed's op-count fingerprint, into a JSON file under the key
``trace0`` or ``trace1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line and the full record of one run."""
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output:\n{res.stdout}")
    record = json.loads((ROOT / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", help="write medians and quartiles to this JSON file")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    record = None
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        fingerprints = {}
        for seed in seed_list(args.seeds):
            result, record = run_once(bench, workload, seed, args.trace)
            fingerprints[str(seed)] = record["fingerprint"]
            metrics = dict(result["metrics"])
            if args.trace:
                metrics["trace_overhead"] = {"value": record["trace_overhead"], "unit": "ratio"}
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {"fingerprints": fingerprints}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[workload][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "runs": len(vals)}
            limit = f"{bound / 3:.3f}" if bound else "-"
            flag = "" if not bound or spread < bound / 3 else "  WIDE"
            print(f"  {workload:<15} {name:<36} median {med:<12.6g} spread {spread:.3f}"
                  f" (bound/3 {limit}){flag}", flush=True)
    if args.baseline:
        path = Path(args.baseline)
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline[f"trace{args.trace}"] = {
            "seeds": args.seeds, "run_seconds": bench["run_seconds"],
            "environment": record["environment"], "workloads": summary}
        path.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
