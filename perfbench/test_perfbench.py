"""Tests of the benchmark itself: seeded generators, repeatable op counts,
span accounting and the restoring of every traced name.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from ecagg.counters import counters  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def env():
    return workloads.setup(7)


def make(name, env, seed):
    return workloads.WORKLOADS[name](env, seed)


@functools.cache
def made(name, seed):
    """A workload at the benchmark's sizes, built once and never modified."""
    return make(name, workloads.setup(7), seed)


def generated(w) -> list:
    if isinstance(w, workloads.SensorRound):
        return [(tree.nodes, tree.root, total) for tree, total in w.trees]
    if isinstance(w, workloads.RelayFold):
        return [w.pool, w.subsets]
    return [w.plaintexts, w.pool]


@pytest.mark.parametrize("name", NAMES)
def test_generators_follow_the_seed(env, name):
    a, b, c = make(name, env, 11), made(name, 11), made(name, 12)
    assert generated(a) == generated(b)
    assert generated(a) != generated(c)


def test_setup_keys_follow_the_seed(env):
    assert workloads.setup(7).keys == env.keys


def test_reader_plaintexts_cover_the_bound():
    w = made("reader-decrypt", 11)
    width = (workloads.BOUND + 1) // w.POOL
    assert sorted(m // width for m in w.plaintexts) == list(range(w.POOL))


@pytest.mark.parametrize("name", NAMES)
def test_op_counts_repeat_for_a_seed(env, name):
    ops = counters()
    runs = []
    for w in (make(name, env, 11), made(name, 11)):
        runs.append(bench.closed_loop(w, w.run, 0, ops))
    assert all(all(s.ok) for s in runs)
    assert runs[0].counts == runs[1].counts
    assert runs[0].fingerprint() == runs[1].fingerprint()
    assert runs[0].fingerprint()["ecadd"] > 0


def test_wrong_output_counts_as_failed(env):
    w = make("reader-decrypt", env, 5)
    w.plaintexts[1] += 1
    s = bench.closed_loop(w, w.run, 0, counters())
    assert s.ok[:4] == [True, False, True, True]


def test_root_that_does_not_decrypt_counts_as_failed(env):
    # swapping R and S of one leaf keeps every point valid, so the fold
    # succeeds, but the root's sum leaves the bound and decrypting it raises
    w = make("relay-fold", env, 5)
    leaves, total = w.subsets[1]
    size = len(leaves[0]) // 2
    leaves = [leaves[0][size:] + leaves[0][:size]] + leaves[1:]
    w.subsets[1] = (leaves, total)
    s = bench.closed_loop(w, w.run, 0, counters())
    assert s.ok[:4] == [True, False, True, True]


def test_self_time_is_span_minus_children():
    # root [0,100] holds a [10,30] and b [40,70]; a holds d [12,18]
    start = [0, 10, 12, 40]
    end = [100, 30, 18, 70]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == [100 - 20 - 30, 20 - 6, 6, 30]
    assert all(t >= 0 for t in own)


def fake_layers():
    inner = types.SimpleNamespace()
    outer = types.SimpleNamespace()
    ops = counters()

    def leaf(x):
        ops.ecadd += 1
        return x + 1

    def middle(x):
        return inner.leaf(inner.leaf(x))

    def fails(x):
        raise ValueError(x)

    inner.leaf = leaf
    outer.middle = middle
    outer.fails = fails
    return inner, outer


def test_tracer_records_nested_spans_and_restores():
    inner, outer = fake_layers()
    originals = (inner.leaf, outer.middle, outer.fails)
    tracer = Tracer(counters())
    with tracer:
        assert tracer.wrap(inner, "leaf", "inner.leaf")
        assert tracer.wrap(outer, "middle", "outer.middle")
        assert tracer.wrap(outer, "fails", "outer.fails")
        assert not tracer.wrap(outer, "absent", "outer.absent")
        for i in range(3):
            tracer.item = i
            assert outer.middle(i) == i + 2
        with pytest.raises(ValueError):
            outer.fails(0)
    assert (inner.leaf, outer.middle, outer.fails) == originals
    c = tracer.cols
    labels = [tracer.labels[k] for k in c["label"]]
    assert labels[:3] == ["outer.middle", "inner.leaf", "inner.leaf"]
    assert list(c["parent"][:3]) == [-1, 0, 0]
    assert list(c["ecadd"][:3]) == [2, 1, 1]
    assert labels[-1] == "outer.fails" and c["end"][len(tracer) - 1] > 0
    own = tracer.self_times()
    assert own[0] == (c["end"][0] - c["start"][0]) - sum(
        c["end"][k] - c["start"][k] for k in (1, 2))
    roots = [c["end"][k] - c["start"][k] for k in range(len(tracer)) if c["parent"][k] < 0]
    # the failed call was made while item 2 was current
    assert bench.item_accounting_ok(tracer, own, roots[:2] + [roots[2] + roots[3]])
    assert not bench.item_accounting_ok(tracer, own, roots[:3])


def test_tracer_restores_names_after_an_error():
    inner, outer = fake_layers()
    original = inner.leaf
    with pytest.raises(RuntimeError):
        with Tracer(counters()) as tracer:
            tracer.wrap(inner, "leaf", "inner.leaf")
            raise RuntimeError("stop")
    assert inner.leaf is original


@pytest.mark.parametrize("name", NAMES)
def test_traced_loop_restores_ecagg_and_reports_every_layer(env, name):
    ops = counters()
    w = made(name, 11)
    plain = bench.closed_loop(w, w.run, 0, ops)
    tracer, traced, restored, missing = bench.traced_loop(w, 0, ops)
    assert restored and missing == []
    for module, attr, _ in bench.TRACE_POINTS:
        fn = getattr(__import__(f"ecagg.{module}", fromlist=[attr]), attr)
        assert fn.__name__ == attr
    assert traced.counts == plain.counts
    own = tracer.self_times()
    assert min(own) >= 0
    assert bench.item_accounting_ok(tracer, own, traced.latency_ns)
    metrics = bench.per_layer(tracer, own, traced, [env.timings], 1.0, 1.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (k, unit) for k, (_, unit) in metrics.items()]


def test_end_to_end_names_match_benchmark_json(env):
    w = made("reader-decrypt", 11)
    s = bench.closed_loop(w, w.run, 0, counters())
    metrics = bench.end_to_end(s, [env.timings])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (k, unit) for k, (_, unit) in metrics.items()]
    assert all(v > 0 for v, _ in metrics.values())


def test_role_phases_follow_the_markers():
    children = [("elgamal.encrypt", 5), ("elgamal.ct_to_bytes", 1),
                ("elgamal.ct_from_bytes", 2), ("elgamal.ct_add", 3),
                ("elgamal.ct_to_bytes", 4), ("elgamal.ct_from_bytes", 6),
                ("elgamal.decrypt", 7)]
    assert bench.role_phases(children) == {"leaf": 6, "fold": 9, "reader": 13}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "relay-fold",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert "correct" not in res.stdout
