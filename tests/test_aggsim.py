"""Aggregation rounds over scenario trees."""

import dataclasses
import random

import pytest

from ecagg.aggsim import (
    NodeSpec,
    NodeStats,
    Scenario,
    emit_report,
    load_scenario,
    parse_report,
    run_round,
    scenario_from_text,
)
from ecagg.counters import FIELDS, tally
from ecagg.curve import builtin_curve, to_affine
from ecagg.elgamal import KeyPair, keygen
from ecagg.errors import BadScenario, Error, MessageTooLarge
from ecagg.scalarmul import mul_binary

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


@pytest.fixture(scope="module")
def keys(curve):
    return keygen(random.Random(0xA66), curve)


def shipped_scenario_path():
    import importlib.resources
    return importlib.resources.files("ecagg").joinpath("data/demo.scenario")


# --- scenario loading -------------------------------------------------------------

def test_shipped_scenario_loads():
    scenario = scenario_from_text(shipped_scenario_path().read_text())
    readings = sorted(n.reading for n in scenario.leaves())
    assert readings == [14, 15, 16, 18]
    assert scenario.nodes[scenario.root].role == "reader"


def test_cycle_rejected():
    text = """
id=reader
role=reader
children=a

id=a
role=aggregator
children=b

id=b
role=aggregator
children=a
"""
    with pytest.raises(BadScenario):
        scenario_from_text(text)


def test_duplicate_id_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=reader\nrole=reader\nchildren=x\n\nid=x\nrole=leaf\n\nid=x\nrole=leaf\n")


def test_missing_reader_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=a\nrole=leaf\nreading=5\n")


def test_two_readers_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=r1\nrole=reader\n\nid=r2\nrole=reader\n")


def test_unknown_child_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=reader\nrole=reader\nchildren=ghost\n")


def test_orphan_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=reader\nrole=reader\n\nid=stray\nrole=leaf\nreading=1\n")


def test_negative_reading_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=reader\nrole=reader\nchildren=a\n\nid=a\nrole=leaf\nreading=-3\n")


def test_oversized_reading_rejected():
    big = 1 << 24
    with pytest.raises(BadScenario):
        scenario_from_text(f"id=reader\nrole=reader\nchildren=a\n\nid=a\nrole=leaf\nreading={big}\n")


def test_leaf_with_children_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text(
            "id=reader\nrole=reader\nchildren=a\n\nid=a\nrole=leaf\nreading=1\nchildren=b\n\nid=b\nrole=leaf\n")


LEAF_UNDER_READER = "id=reader\nrole=reader\nchildren=a\n\nid=a\nrole=leaf\n"


@pytest.mark.parametrize("text", [
    LEAF_UNDER_READER + "reading 4\n",
    LEAF_UNDER_READER + "=4\n",
    LEAF_UNDER_READER + "Role=leaf\n",
    LEAF_UNDER_READER.replace("role=leaf", "reading=4"),
    LEAF_UNDER_READER + "reading=4x\n",
    # the report's records are whitespace-separated key=value pairs: these
    # ids would break its parser or read back as another node
    "id=reader\nrole=reader\nchildren=my leaf\n\nid=my leaf\nrole=leaf\n",
    "id=reader\nrole=reader\nchildren=s1 bytes=0\n\nid=s1 bytes=0\nrole=leaf\n",
    "id=reader\nrole=reader\n\nid=\nrole=leaf\n",
], ids=["no_equals", "empty_key", "duplicate_key", "missing_field", "bad_integer",
        "id_with_space", "id_with_record", "empty_id"])
def test_malformed_node_block_rejected(text):
    with tally() as t, pytest.raises(BadScenario):
        scenario_from_text(text)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]


def test_reading_on_aggregator_rejected():
    with pytest.raises(BadScenario):
        scenario_from_text("id=reader\nrole=reader\nchildren=a\n\nid=a\nrole=aggregator\nreading=4\n")


# --- rounds ------------------------------------------------------------------------

def test_demo_round_recovers_63(keys):
    scenario = scenario_from_text(DEMO)
    result = run_round(scenario, keys, random.Random(1), max_bits=16)
    assert result.recovered_sum == 63
    assert result.expected_sum == 63
    assert set(result.ciphertexts) == {"reader", "agg", "s1", "s2", "s3", "s4"}


def test_single_zero_leaf(keys):
    scenario = scenario_from_text("id=reader\nrole=reader\nchildren=a\n\nid=a\nrole=leaf\nreading=0\n")
    result = run_round(scenario, keys, random.Random(2), max_bits=16)
    assert result.recovered_sum == 0


def test_empty_aggregation(keys):
    scenario = scenario_from_text("id=reader\nrole=reader\nchildren=agg\n\nid=agg\nrole=aggregator\n")
    result = run_round(scenario, keys, random.Random(3), max_bits=16)
    assert result.recovered_sum == 0
    assert result.expected_sum == 0


def test_random_readings_drawn_from_seed(keys):
    text = "id=reader\nrole=reader\nchildren=a,b\n\nid=a\nrole=leaf\n\nid=b\nrole=leaf\n"
    r1 = run_round(scenario_from_text(text), keys, random.Random(9), max_bits=16)
    r2 = run_round(scenario_from_text(text), keys, random.Random(9), max_bits=16)
    assert r1.recovered_sum == r2.recovered_sum
    assert r1.ciphertexts == r2.ciphertexts


def random_tree(rng, max_fanout=5, depth=3):
    """Build a random scenario text with known readings."""
    blocks = ["id=reader\nrole=reader\nchildren=n0"]
    counter = [1]
    total = [0]

    def grow(nid, level):
        if level >= depth or rng.random() < 0.3:
            reading = rng.randrange(256)
            total[0] += reading
            blocks.append(f"id={nid}\nrole=leaf\nreading={reading}")
            return
        kids = []
        for _ in range(rng.randrange(1, max_fanout + 1)):
            kid = f"n{counter[0]}"
            counter[0] += 1
            kids.append(kid)
        blocks.append(f"id={nid}\nrole=aggregator\nchildren={','.join(kids)}")
        for kid in kids:
            grow(kid, level + 1)

    grow("n0", 0)
    return "\n\n".join(blocks), total[0]


def test_random_trees_recover_sums(keys, rng):
    for _ in range(10):
        text, expected = random_tree(rng)
        result = run_round(scenario_from_text(text), keys, rng, max_bits=16)
        assert result.recovered_sum == expected
        assert result.expected_sum == expected


def test_child_permutation_keeps_sum(keys):
    base = scenario_from_text(DEMO)
    permuted = scenario_from_text(DEMO.replace("children=s1,s2,s3,s4", "children=s4,s2,s1,s3"))
    r1 = run_round(base, keys, random.Random(5), max_bits=16)
    r2 = run_round(permuted, keys, random.Random(5), max_bits=16)
    assert r1.recovered_sum == r2.recovered_sum == 63


def test_deep_chain_round(keys):
    # 2,000 aggregators in a single chain: deeper than the recursion limit
    depth = 2000
    blocks = ["id=reader\nrole=reader\nchildren=a0"]
    blocks += [f"id=a{i}\nrole=aggregator\nchildren=a{i + 1}" for i in range(depth - 1)]
    blocks += [f"id=a{depth - 1}\nrole=aggregator\nchildren=s", "id=s\nrole=leaf\nreading=77"]
    result = run_round(scenario_from_text("\n\n".join(blocks)), keys, random.Random(8),
                       max_bits=16)
    assert result.recovered_sum == result.expected_sum == 77
    assert len(result.node_stats) == depth + 2


def test_post_order_children_first_in_listed_order(keys):
    text = DEMO.replace("children=agg", "children=agg,s5") + "\nid=s5\nrole=leaf\nreading=1\n"
    scenario = scenario_from_text(text)
    order = ["s1", "s2", "s3", "s4", "agg", "s5", "reader"]
    assert list(scenario.nodes) == order
    result = run_round(scenario, keys, random.Random(3), max_bits=16)
    assert list(result.node_stats) == order


@pytest.mark.parametrize("reading", ["reading=255\n", ""])
def test_worst_case_sum_rejected_before_encryption(keys, reading):
    # 300 leaves at 255 (fixed, or drawn with 255 as the worst case) exceed 2**16 - 1
    blocks = ["id=reader\nrole=reader\nchildren=" + ",".join(f"s{i}" for i in range(300))]
    blocks += [f"id=s{i}\nrole=leaf\n{reading}" for i in range(300)]
    scenario = scenario_from_text("\n\n".join(blocks))
    with tally() as ops, pytest.raises(Error, match="worst-case sum"):
        run_round(scenario, keys, random.Random(1), max_bits=16)
    assert (ops.ecadd, ops.ecdbl) == (0, 0)


def test_worst_case_sum_at_bound_accepted(keys):
    # 257 leaves at 255 sum to 65535 = 2**16 - 1, the largest recoverable sum
    blocks = ["id=reader\nrole=reader\nchildren=agg",
              "id=agg\nrole=aggregator\nchildren=" + ",".join(f"s{i}" for i in range(257))]
    blocks += [f"id=s{i}\nrole=leaf\nreading=255" for i in range(257)]
    result = run_round(scenario_from_text("\n\n".join(blocks)), keys, random.Random(1),
                       max_bits=16)
    assert result.recovered_sum == 65535


def test_no_secret_fields_outside_reader():
    # neither the node spec nor the per-node stats carry key material
    field_names = {f.name for f in dataclasses.fields(NodeSpec)}
    field_names |= {f.name for f in dataclasses.fields(NodeStats)}
    assert not any("secret" in name or name == "x" for name in field_names)


def test_serialization_on_every_hop(keys):
    scenario = scenario_from_text(DEMO)
    result = run_round(scenario, keys, random.Random(11), max_bits=16)
    for data in result.ciphertexts.values():
        assert isinstance(data, bytes)
        assert data[0] in (0x00, 0x04)


# --- reporting ----------------------------------------------------------------------

def test_report_contains_sum(keys):
    result = run_round(scenario_from_text(DEMO), keys, random.Random(4), max_bits=16)
    report = emit_report(result)
    assert "sum=63" in report


def test_report_roundtrip(keys):
    result = run_round(scenario_from_text(DEMO), keys, random.Random(4), max_bits=16)
    parsed = parse_report(emit_report(result))
    assert parsed["sum"] == result.recovered_sum
    assert parsed["expected"] == result.expected_sum
    assert parsed["nodes"].keys() == result.node_stats.keys()
    for nid, st in result.node_stats.items():
        rec = parsed["nodes"][nid]
        assert rec == {"role": st.role, "bytes": st.ct_bytes,
                       **{f: getattr(st.ops, f) for f in FIELDS}}
    assert parsed["setup"] == {f: getattr(result.setup, f) for f in FIELDS}
    assert parsed["node_count"] == len(result.node_stats)


def test_setup_and_nodes_account_for_every_operation():
    # on a fresh curve the setup record carries the table and BSGS builds;
    # setup plus the nodes must equal everything the round counted
    keys = keygen(random.Random(0xACC), builtin_curve())
    with tally() as outer:
        result = run_round(scenario_from_text(DEMO), keys, random.Random(1), max_bits=16)
    # the generator's (16,6) table, (240, 151, 5659, 2): one inversion for
    # the 15 shifted bases and the 16 doubled ones, one for the 240 odd
    # multiples of all 16 tracks; keygen already built the public key's table.  The reader searches [0, 63], the sum
    # of the fixed readings: stride 2**7 (2**min(14, (6 + 1) // 2 + 4) for
    # the 6-bit bound) and (63 + 128) // 256 = 0 giant steps, so the search
    # tables are the 128 baby points alone, a ladder of 7 levels of 1, 2,
    # ..., 64 lanes, one inversion and one doubling each: 127 - 7 = 120
    # additions and 3*127 + 7 + 3*(127 - 7) = 748 multiplications with the
    # batch inversions' share, (120, 7, 748, 7)
    assert [getattr(result.setup, f) for f in FIELDS] == [240 + 120, 151 + 7, 5659 + 748, 2 + 7]
    for f in FIELDS:
        nodes = sum(getattr(st.ops, f) for st in result.node_stats.values())
        assert getattr(result.setup, f) + nodes == getattr(outer, f), f
    # no node is charged a build (a (16,6) table costs 151 ECDBL): a leaf
    # runs two chains of at most 10 doublings (k < n < 2**160 + 2**81
    # recodes to terms no higher than position 160, offset 10 of the last
    # 10-position row, and the readings are shorter), an aggregator only adds, the
    # reader x*R over 160 bits; each
    # node inverts once, to serialize (leaf, aggregator) or to normalize M
    # (reader)
    for st in result.node_stats.values():
        if st.role == "aggregator":
            assert st.ops.ecdbl == 0
        elif st.role == "leaf":
            assert st.ops.ecdbl <= 20
        else:
            assert st.ops.ecdbl < 170
        assert st.ops.fe_inv == 1
    # the reader's single child leaves its fold affine, so serializing it and
    # normalizing R and S are free, x*(-R) stays Jacobian: one inversion for
    # M, and the sum 63 is a baby-table hit with no giant step
    assert result.node_stats["reader"].ops.fe_inv == 1


def test_setup_builds_a_missing_public_key_table():
    # a key made without keygen, such as one read from a .pub file, has no
    # table yet: the round's setup builds it, not a leaf
    curve = builtin_curve()
    x = random.Random(0xACC).randrange(1, curve.order_n)
    keys = KeyPair(x, to_affine(mul_binary(x, curve.G)))
    Y, G = keys.public_Y, curve.G
    assert (Y.x, Y.y) not in curve._tables
    result = run_round(scenario_from_text(DEMO), keys, random.Random(1), max_bits=16)
    # the round's usual (360, 158, 6407, 9), plus the key's (16,6) table,
    # (240, 151, 5659, 2)
    assert [getattr(result.setup, f) for f in FIELDS] == [360 + 240, 158 + 151, 6407 + 5659, 9 + 2]
    assert all(st.ops.ecdbl <= 20 for st in result.node_stats.values() if st.role == "leaf")
    assert curve._tables.keys() == {(G.x, G.y), (Y.x, Y.y)}


def test_round_rejects_bound_above_search_ceiling(keys):
    with tally() as t, pytest.raises(MessageTooLarge):
        run_round(scenario_from_text(DEMO), keys, random.Random(1), max_bits=33)
    assert [getattr(t, f) for f in FIELDS] == [0, 0, 0, 0]


def test_empty_round_reports_zero_counts(keys):
    scenario = scenario_from_text("id=reader\nrole=reader\nchildren=agg\n\nid=agg\nrole=aggregator\n")
    result = run_round(scenario, keys, random.Random(6), max_bits=16)
    report = emit_report(result)
    parsed = parse_report(report)
    assert parsed["sum"] == 0
    assert parsed["nodes"]["agg"]["ecadd"] == 0
    assert parsed["nodes"]["agg"]["ecdbl"] == 0


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(BadScenario):
        load_scenario(tmp_path / "nope.scenario")


def test_load_scenario_not_utf8(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_bytes(DEMO.encode().replace(b"id=s1", b"id=s\xff"))
    with pytest.raises(BadScenario):
        load_scenario(path)
