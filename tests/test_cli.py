"""Command-line behaviour, including the exit-code contract."""

import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from ecagg import cli
from ecagg.aggsim import load_scenario, parse_report, run_round
from ecagg.cli import main
from ecagg.counters import FIELDS, tally
from ecagg.curve import builtin_curve, to_affine
from ecagg.elgamal import keygen, load_public_key, load_secret_key, save_keypair
from ecagg.errors import BadConfig
from ecagg.scalarmul import mul_binary

CURVE_TEXT = """
name = secp160r1
n = a0
c = 80000001
a = ffffffffffffffffffffffffffffffff7ffffffc
b = 1c97befc54bd7a8b65acf89f81d4d4adc565fa45
gx = 4a96b5688ef573284664698968c38bb913cbfc82
gy = 23a628553168947d59dcc912042351377ac5fb32
order_n = 0100000000000000000001f4c8f927aed3ca752257
"""

DEMO = """
id=reader
role=reader
children=agg

id=agg
role=aggregator
children=s1,s2,s3,s4

id=s1
role=leaf
reading=15

id=s2
role=leaf
reading=16

id=s3
role=leaf
reading=18

id=s4
role=leaf
reading=14
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "test.curve").write_text(CURVE_TEXT)
    (tmp_path / "demo.scenario").write_text(DEMO)
    return tmp_path


def run_main(*argv):
    return main(list(argv))


# --- keygen -----------------------------------------------------------------------

def test_keygen_deterministic(workspace, capsys):
    # keygen writes elgamal.keygen's key over the shipped curve, drawn from
    # the seeded generator: the same seed gives the same bytes
    assert run_main("keygen", "--out", str(workspace / "a"), "--seed", "c0ffee") == 0
    save_keypair(keygen(random.Random(0xc0ffee), builtin_curve()), workspace / "b")
    assert (workspace / "a.pub").read_bytes() == (workspace / "b.pub").read_bytes()
    assert (workspace / "a.sec").read_bytes() == (workspace / "b.sec").read_bytes()


def test_keygen_takes_no_curve_file(workspace, capsys):
    # keygen's curve is the shipped profile, so argparse refuses a curve
    # file before anything is written
    with pytest.raises(SystemExit) as exc:
        run_main("keygen", "--curve", str(workspace / "test.curve"),
                 "--out", str(workspace / "k"), "--seed", "1")
    assert exc.value.code == 2
    assert "--curve" in capsys.readouterr().err
    assert not list(workspace.glob("k.*"))


def test_unseeded_runs_draw_from_the_os(workspace):
    # secret keys and randomizers come from the OS when no seed is given;
    # a seed still gives a reproducible generator
    assert isinstance(cli._make_rng(None), random.SystemRandom)
    assert type(cli._make_rng("c0ffee")) is random.Random
    assert run_main("keygen", "--out", str(workspace / "os")) == 0
    Y = load_public_key(workspace / "os.pub")
    x, curve = load_secret_key(workspace / "os.sec")
    assert Y == to_affine(mul_binary(x, curve.G))


def test_non_hex_seed_exits_2(workspace, capsys):
    assert run_main("keygen", "--out", str(workspace / "k"), "--seed", "0xyz") == 2
    assert "not hexadecimal" in capsys.readouterr().err
    assert not (workspace / "k.pub").exists() and not (workspace / "k.sec").exists()


def test_keygen_secret_file_mode_0600(workspace):
    assert run_main("keygen", "--out", str(workspace / "k"), "--seed", "1") == 0
    assert stat.S_IMODE((workspace / "k.sec").stat().st_mode) == 0o600


@pytest.mark.parametrize("existing", ["both", "pub", "sec"])
def test_keygen_refuses_to_overwrite(workspace, existing):
    assert run_main("keygen", "--out", str(workspace / "k"), "--seed", "1") == 0
    if existing != "both":
        (workspace / ("k.sec" if existing == "pub" else "k.pub")).unlink()
    before = {p.name: p.read_bytes() for p in workspace.glob("k.*")}
    assert run_main("keygen", "--out", str(workspace / "k"), "--seed", "2") == 2
    assert {p.name: p.read_bytes() for p in workspace.glob("k.*")} == before


@pytest.mark.parametrize("dangling", ["pub", "sec"])
def test_keygen_refuses_dangling_key_file_link(workspace, dangling):
    # a symlink to a missing file is still a key file name in use: keygen
    # must neither follow it nor write the other file of the pair
    target = workspace / "elsewhere"
    (workspace / f"k.{dangling}").symlink_to(target)
    assert run_main("keygen", "--out", str(workspace / "k"), "--seed", "1") == 2
    assert not target.exists()
    assert [p.name for p in workspace.glob("k.*")] == [f"k.{dangling}"]


def test_keygen_pub_validates_on_reload(workspace):
    from ecagg.curve import on_curve
    from ecagg.elgamal import load_public_key
    run_main("keygen", "--out", str(workspace / "k"), "--seed", "11")
    assert on_curve(load_public_key(workspace / "k.pub"))


# --- encrypt / add / decrypt --------------------------------------------------------

def encrypt_files(workspace, messages, prefix="m"):
    paths = []
    for i, m in enumerate(messages):
        out = workspace / f"{prefix}{i}.ct"
        assert run_main("encrypt", "--pub", str(workspace / "k.pub"), "--msg", str(m),
                        "--out", str(out), "--seed", f"{i + 1:x}") == 0
        paths.append(str(out))
    return paths


def test_pipeline_recovers_63(workspace, capsys):
    run_main("keygen", "--out", str(workspace / "k"), "--seed", "2")
    cts = encrypt_files(workspace, (15, 16, 18, 14))
    assert run_main("add", "--in", *cts, "--out", str(workspace / "sum.ct")) == 0
    capsys.readouterr()
    assert run_main("decrypt", "--sec", str(workspace / "k.sec"),
                    "--in", str(workspace / "sum.ct"), "--max", "1000") == 0
    assert capsys.readouterr().out.strip() == "63"


def test_decrypt_wrong_key_exits_3(workspace, capsys):
    run_main("keygen", "--out", str(workspace / "k"), "--seed", "2")
    run_main("keygen", "--out", str(workspace / "w"), "--seed", "3")
    cts = encrypt_files(workspace, (250,))
    assert run_main("decrypt", "--sec", str(workspace / "w.sec"),
                    "--in", cts[0], "--max", "60000") == 3


def test_decrypt_search_ceiling(workspace, capsys):
    run_main("keygen", "--out", str(workspace / "k"), "--seed", "2")
    cts = encrypt_files(workspace, (77,))
    for bound in (str(1 << 32), "-1"):
        assert run_main("decrypt", "--sec", str(workspace / "k.sec"),
                        "--in", cts[0], "--max", bound) == 2
    capsys.readouterr()
    # the widest bound runs N = 2**17 giant steps at stride 2**14 and builds
    # their table of ceil(N/2) = 2**16 points once
    assert run_main("decrypt", "--sec", str(workspace / "k.sec"),
                    "--in", cts[0], "--max", str((1 << 32) - 1)) == 0
    assert capsys.readouterr().out.strip() == "77"


def test_add_single_file_reencodes(workspace):
    run_main("keygen", "--out", str(workspace / "k"), "--seed", "2")
    cts = encrypt_files(workspace, (9,))
    assert run_main("add", "--in", cts[0], "--out", str(workspace / "copy.ct")) == 0
    assert (workspace / "copy.ct").read_bytes() == (workspace / "m0.ct").read_bytes()


def test_add_writes_the_rounds_aggregate(workspace):
    # ecagg add runs the aggregator's hop: over a seeded demo round's four
    # leaf ciphertexts it writes exactly the bytes that round's agg sent
    rng = random.Random(7)
    result = run_round(load_scenario(workspace / "demo.scenario"),
                       keygen(rng, builtin_curve()), rng)
    leaves = []
    for nid in ("s1", "s2", "s3", "s4"):
        (workspace / f"{nid}.ct").write_bytes(result.ciphertexts[nid])
        leaves.append(str(workspace / f"{nid}.ct"))
    assert run_main("add", "--in", *leaves, "--out", str(workspace / "agg.ct")) == 0
    assert (workspace / "agg.ct").read_bytes() == result.ciphertexts["agg"]


def test_encrypt_bad_pub_exits_2(workspace):
    assert run_main("encrypt", "--pub", str(workspace / "missing.pub"), "--msg", "4",
                    "--out", str(workspace / "x.ct")) == 2


def test_encrypt_oversized_message_exits_2(workspace):
    run_main("keygen", "--out", str(workspace / "k"), "--seed", "2")
    assert run_main("encrypt", "--pub", str(workspace / "k.pub"),
                    "--msg", str(1 << 30), "--out", str(workspace / "x.ct")) == 2


# --- simulate --------------------------------------------------------------------------

def test_simulate_demo(workspace, capsys):
    assert run_main("simulate", "--scenario", str(workspace / "demo.scenario"),
                    "--seed", "77") == 0
    out = capsys.readouterr().out
    assert "sum=63" in out


def test_simulate_reproducible(workspace, capsys):
    run_main("simulate", "--scenario", str(workspace / "demo.scenario"), "--seed", "9")
    first = capsys.readouterr().out
    run_main("simulate", "--scenario", str(workspace / "demo.scenario"), "--seed", "9")
    second = capsys.readouterr().out
    assert first == second


def test_simulate_records_account_for_every_operation(workspace, capsys):
    # curve validation and keygen's public-key (16,6) table come before the
    # round starts; the (setup) record carries them, so setup plus the node
    # records equal everything the command counted
    with tally() as outer:
        assert run_main("simulate", "--scenario", str(workspace / "demo.scenario"),
                        "--seed", "1") == 0
    report = parse_report(capsys.readouterr().out)
    for f in FIELDS:
        nodes = sum(rec[f] for rec in report["nodes"].values())
        assert report["setup"][f] + nodes == getattr(outer, f), f
    # curve validation (160 doublings for order_n * G), Y itself (159 for
    # this seed's x * G), the key's and the generator's (16,6) tables (151
    # each: 15 shifted bases by 10 doublings, each track's 2P the first of
    # them past its base, and one more for the last track's), and the
    # search tables for the demo's worst-case sum 63 (7: 128 baby points
    # from a ladder of 7 levels, one doubling each, and no giant step)
    assert report["setup"]["ecdbl"] == 160 + 159 + 2 * 151 + 7
    # the demo's four encryptions, each serialized: 11 multiplies a mixed
    # addition, 8 a doubling, and 11 more normalize R and S (4 each at a
    # general Z, 3 for the shared inversion).  ECADD is twice k's width-6
    # terms (24, 23, 23 and 24) plus the reading's one (15, 16 = 2**4, 18 =
    # 9*2 and 14 = 7*2 are each a single term), less each chain's free
    # first addition.  A chain doubles once per position below the highest
    # offset of a term in any of k's sixteen 10-position rows: 8 for s1, 9
    # for s2 and s3, and 10 for s4, whose carry digit sits at offset 10 of
    # the last row.  So s1 is 47*11 + 16*8 + 11 = 656.  The aggregator,
    # the reader and the setup run no encryption.  The reader's x*(-R) runs
    # at width 4, old (53, 160, 1863, 0) at width 2: 2P, 3P, 5P, 7P and
    # their cached Z powers (3 ECADD, 1 ECDBL, 57 multiplies), then this
    # x's 159 digits, 32 nonzero, the top one a 3 that lands on the
    # identity, free: 158 doublings, 8 mixed additions of +-R (11 each)
    # and 23 over a cached multiple (14 each), so (34, 159, 57 + 1264 + 88
    # + 322 = 1731, 0); S's mixed addition (1, 0, 11, 0); and the search
    # normalizing M, a baby-table hit (0, 0, 16, 1).  The setup is curve
    # validation, Y and the search tables, (245, 326, 4686, 8), plus the
    # two (16,6) table builds, (240, 151, 5659, 2) each
    records = {node: tuple(rec[f] for f in FIELDS) for node, rec in report["nodes"].items()}
    assert records == {"s1": (47, 16, 656, 1), "s2": (45, 18, 650, 1), "s3": (45, 18, 650, 1),
                       "s4": (47, 20, 688, 1), "agg": (6, 0, 91, 1),
                       "reader": (35, 159, 1758, 1)}
    assert tuple(report["setup"][f] for f in FIELDS) == (725, 628, 16004, 12)


def test_simulate_bad_scenario_exits_2(workspace):
    bad = workspace / "bad.scenario"
    bad.write_text("id=a\nrole=leaf\n")
    assert run_main("simulate", "--scenario", str(bad)) == 2


# --- bench -----------------------------------------------------------------------------

def parse_bench_counts(text):
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] in ("config", "note:"):
            continue
        if len(parts) >= 12:
            rows[parts[0]] = {
                "ecadd": float(parts[5]), "ecdbl": float(parts[7]), "femul": float(parts[9])}
    return rows


def test_bench_doubling_halves(workspace, capsys):
    curve = str(workspace / "test.curve")
    assert run_main("bench", "--curve", curve, "--trials", "5",
                    "--configs", "binary", "interleave:t=2,w=2", "--seed", "abc") == 0
    rows = parse_bench_counts(capsys.readouterr().out)
    ratio = rows["interleave:t=2,w=2"]["ecdbl"] / rows["binary"]["ecdbl"]
    assert 0.45 < ratio < 0.56


def test_bench_doublings_monotone_in_tracks(workspace, capsys):
    curve = str(workspace / "test.curve")
    configs = [f"interleave:t={t},w=2" for t in (1, 2, 3, 4)]
    assert run_main("bench", "--curve", curve, "--trials", "3",
                    "--configs", *configs, "--seed", "feed") == 0
    rows = parse_bench_counts(capsys.readouterr().out)
    means = [rows[c]["ecdbl"] for c in configs]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_bench_mof_reduces_additions(workspace, capsys):
    curve = str(workspace / "test.curve")
    assert run_main("bench", "--curve", curve, "--trials", "5",
                    "--configs", "binary", "mof2", "--seed", "abc") == 0
    rows = parse_bench_counts(capsys.readouterr().out)
    assert rows["mof2"]["ecadd"] < 0.8 * rows["binary"]["ecadd"]


def test_bench_counts_reproducible(workspace, capsys):
    curve = str(workspace / "test.curve")
    run_main("bench", "--curve", curve, "--trials", "1",
             "--configs", "binary", "mof3", "interleave:t=3,w=2", "--seed", "f00d")
    first = parse_bench_counts(capsys.readouterr().out)
    run_main("bench", "--curve", curve, "--trials", "1",
             "--configs", "binary", "mof3", "interleave:t=3,w=2", "--seed", "f00d")
    second = parse_bench_counts(capsys.readouterr().out)
    assert first == second


def test_bench_elgamal_mode_and_csv(workspace, capsys):
    curve = str(workspace / "test.curve")
    csv_path = workspace / "rows.csv"
    assert run_main("bench", "--curve", curve, "--trials", "2",
                    "--configs", "elgamal", "--seed", "1", "--csv", str(csv_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("config,")
    # the row reports the generator table encryption runs on: (16, 6), its
    # 256 points all but G itself
    assert lines[1].startswith("elgamal,16,6,255,2,")


def test_bench_elgamal_on_a_curve_narrower_than_the_shape(workspace):
    # a valid 7-bit curve (conftest's SMALL7), fewer bits than
    # FIXED_BASE_SHAPE has tracks: keygen and encryption run over tables of
    # one track per bit, 7 * 16 points, all but G itself reported
    small = workspace / "small7.curve"
    small.write_text("name = small7\nn = 7\nc = 1\na = 7c\nb = 39\ngx = 6\ngy = 1\n"
                     "order_n = 6d\n")
    csv_path = workspace / "small7.csv"
    assert run_main("bench", "--curve", str(small), "--trials", "3", "--configs", "elgamal",
                    "--seed", "7", "--csv", str(csv_path)) == 0
    assert csv_path.read_text().splitlines()[1].startswith("elgamal,7,6,111,3,")


def test_bench_reports_inversions(workspace, capsys):
    # the column in both forms: mof3 keeps 3*P Jacobian and binary never
    # inverts, so both read 0 (mof3 read 1 when it normalized 3*P)
    curve = str(workspace / "test.curve")
    csv_path = workspace / "inv.csv"
    assert run_main("bench", "--curve", curve, "--trials", "2", "--configs", "binary", "mof3",
                    "--seed", "f00d", "--csv", str(csv_path)) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    col = header.split().index("fe_inv")
    assert [float(r.split()[col]) for r in rows[:2]] == [0.0, 0.0]
    header, *rows = csv_path.read_text().splitlines()
    col = header.split(",").index("feinv_mean")
    assert [r.split(",")[col] for r in rows] == ["0.000", "0.000"]


def test_bench_w2_note_when_defaulted(workspace, capsys):
    curve = str(workspace / "test.curve")
    run_main("bench", "--curve", curve, "--trials", "1",
             "--configs", "interleave:t=3", "--seed", "2")
    assert "width 2" in capsys.readouterr().out


GOLDEN_CONFIGS = ("binary", "mof2", "mof3", "mof4", "interleave:t=2,w=2", "interleave:t=3",
                  "interleave:t=4,w=4", "elgamal")

GOLDEN_TEXT = """\
config                  t  w prec trials    ecadd     sd    ecdbl     sd    fe_mul      sd fe_inv
binary                  1  0    0      3     79.0    4.3    158.3    0.9    2135.7    55.0    0.0
mof2                    1  2    0      3     53.0    0.8    159.0    0.8    1855.0    13.5    0.0
mof3                    1  3    0      3     40.3    0.9    159.0    1.6    1777.7    14.4    0.0
mof4                    1  4    0      3     35.3    1.2    159.0    0.0    1745.7    10.9    0.0
interleave:t=2,w=2      2  2    1      3     53.0    0.8     79.0    0.8    1215.0    13.5    0.0
interleave:t=3          3  2    2      3     53.0    0.8     53.0    0.0    1007.0     9.0    0.0
interleave:t=4,w=4      4  4   15      3     32.3    1.2     38.3    0.5     662.3    17.3    0.0
elgamal                16  6  255      3     46.0    0.8     17.3    0.9     644.7    16.0    0.0
note: rows without an explicit w use width 2
"""

GOLDEN_CSV = """\
config,t,w,prec_points,trials,ecadd_mean,ecadd_sd,ecdbl_mean,ecdbl_sd,femul_mean,femul_sd,feinv_mean
binary,1,0,0,3,79.000,4.320,158.333,0.943,2135.667,54.950,0.000
mof2,1,2,0,3,53.000,0.816,159.000,0.816,1855.000,13.491,0.000
mof3,1,3,0,3,40.333,0.943,159.000,1.633,1777.667,14.430,0.000
mof4,1,4,0,3,35.333,1.247,159.000,0.000,1745.667,10.873,0.000
interleave:t=2,w=2,2,2,1,3,53.000,0.816,79.000,0.816,1215.000,13.491,0.000
interleave:t=3,3,2,2,3,53.000,0.816,53.000,0.000,1007.000,8.981,0.000
interleave:t=4,w=4,4,4,15,3,32.333,1.247,38.333,0.471,662.333,17.327,0.000
elgamal,16,6,255,3,46.000,0.816,17.333,0.943,644.667,15.965,0.000
"""


def test_bench_golden_output(workspace, capsys):
    # a fixed seed pins the counts, the column layout, the CSV and the order
    # in which the elgamal row draws from the seeded generator.  Its
    # encryptions run over (16,6) tables, k's width-6 terms dealt into rows
    # of 10 positions: two chains of 9, 8 and 9 doublings in the three
    # trials, one fewer than the highest offset's position count (the first
    # doubling, of the identity, is free; 10 when a carry digit sits at
    # offset 10 of the last row), and 46, 45 and 47 additions, twice k's 23,
    # 23 and 24 terms plus the reading's 2, 1 and 1, less each chain's free
    # first one.  11 multiplies a mixed addition, 8 a doubling: 46*11 +
    # 17.333*8 = 644.667 (53.667 additions and 734.333 at (16,5)).  An
    # interleave row adds the same nonzero
    # digits as one recoding of k at its width: 53.0 at t=2, w=2, as mof2.
    # mof3 and mof4 keep their odd multiples Jacobian, with Z**2 and Z**3
    # cached at 2 multiplies each: no inversion, and 14 multiplies an
    # addition over one, 3 more than over an affine one.  Old 1719.667 and
    # 1688.667 with 1.0 inversion, when a normalization (4 multiplies at
    # width 3, 3*2 + 4*3 = 18 at width 4) made them affine.  Below the top
    # digit, the three trials add over a multiple above P 60 and 69 times
    # in all, 20 and 23 a trial: 1719.667 + 3*20 - 2 = 1777.667 and
    # 1688.667 + 3*23 - 12 = 1745.667
    curve = str(workspace / "test.curve")
    csv_path = workspace / "golden.csv"
    assert run_main("bench", "--curve", curve, "--trials", "3", "--configs", *GOLDEN_CONFIGS,
                    "--seed", "5eed", "--csv", str(csv_path)) == 0
    assert capsys.readouterr().out == GOLDEN_TEXT
    assert csv_path.read_text() == GOLDEN_CSV


def test_bench_unknown_config_exits_2(workspace):
    curve = str(workspace / "test.curve")
    # a parameter on binary, mofN or elgamal, or a repeated one (keys are
    # case-folded), would otherwise be dropped and its row run another
    # config; a track count above the field's 160 bits would store bases
    # that only see zero digits
    for config in ("quantum", "mof3:w=2", "binary:t=4", "elgamal:t=2", "elgamal:w=4", "mof\u00b2",
                   "interleave:t=2,t=3", "interleave:t=2,T=3", "interleave:t=161",
                   "interleave:t", "interleave:=2", "interleave:x=2", "interleave:w=2x"):
        assert run_main("bench", "--curve", curve, "--trials", "1",
                        "--configs", config) == 2, config


@pytest.mark.parametrize("config", ["interleave:w=2x", "interleave:t=0", "interleave:t=161",
                                    "mof\u00b2", "mof0", "mof1", "mof7"])
def test_bench_config_rejects_with_bad_config(config):
    # bench tokens are outside input: they fail as BadConfig when resolved,
    # never as a ValueError from int() or build_table, nor at a mofN
    # config's first trial
    with pytest.raises(BadConfig):
        cli._bench_config(config, builtin_curve(), random.Random(1))


def test_bench_checks_every_config_before_any_trial(workspace, capsys):
    # a bad width in the last token fails before the first token's trials
    # run: the command counts only loading the curve, as with the bad token
    # alone, and prints no row
    counts = []
    for configs in (["binary", "mof7"], ["mof7"]):
        with tally() as ops:
            assert run_main("bench", "--curve", str(workspace / "test.curve"), "--trials", "2",
                            "--configs", *configs) == 2
        out, err = capsys.readouterr()
        assert out == "" and "mof7" in err
        counts.append([getattr(ops, f) for f in FIELDS])
    assert counts[0] == counts[1]


def test_bench_runs_a_repeated_config(workspace, capsys):
    # every config's key and table are set up before any trial, and a curve
    # keeps both elgamal keys' tables: no trial pays a build (151 doublings
    # beside an encryption's two chains of at most 10)
    assert run_main("bench", "--curve", str(workspace / "test.curve"), "--trials", "3",
                    "--configs", "elgamal", "binary", "elgamal") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["elgamal", "binary", "elgamal"]
    for row in (rows[0], rows[2]):
        assert float(row.split()[7]) <= 40


def test_value_error_in_a_command_escapes_main(workspace, monkeypatch):
    # main maps the library's own errors to exit codes; anything else is a
    # bug and keeps its traceback
    def broken(args):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "cmd_bench", broken)
    with pytest.raises(ValueError, match="bug"):
        run_main("bench", "--curve", str(workspace / "test.curve"), "--trials", "1",
                 "--configs", "binary")


def test_bench_zero_trials_exits_2(workspace):
    curve = str(workspace / "test.curve")
    assert run_main("bench", "--curve", curve, "--trials", "0", "--configs", "binary") == 2


# --- subprocess harness ------------------------------------------------------------------

def test_exit_codes_via_subprocess(workspace):
    env_cmd = [sys.executable, "-m", "ecagg"]
    # the child imports the package under test, installed or not
    root = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    ok = subprocess.run(env_cmd + ["keygen", "--out", str(workspace / "sk"), "--seed", "aa"],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == 0
    bad = subprocess.run(env_cmd + ["keygen", "--out", str(workspace / "x"), "--seed", "0xyz"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    assert "not hexadecimal" in bad.stderr
    assert not list(workspace.glob("x.*"))
    usage = subprocess.run(env_cmd + ["decrypt"], capture_output=True, text=True, env=env)
    assert usage.returncode == 2
