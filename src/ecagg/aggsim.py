"""Deterministic in-process simulation of concealed data aggregation.

A scenario describes a tree: leaves hold sensor readings, aggregator nodes
fold their children's ciphertexts (``fold``, the one aggregator hop, which
``ecagg add`` runs too), and the single reader at the root folds its own
and decrypts the final aggregate.  Leaves and aggregators only ever see the
public key and ciphertext bytes; the secret key exists at the reader alone.  Every hop moves
serialized bytes, so the wire format is exercised on each edge.

Execution is single-threaded post-order traversal and fully determined by
the supplied random source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import FIELDS, OpCounters, tally
from .elgamal import (
    DEFAULT_MAX_BITS,
    MAX_SEARCH_BITS,
    KeyPair,
    bsgs_cache,
    ct_add,
    ct_from_bytes,
    ct_identity,
    ct_to_bytes,
    encrypt,
    decrypt,
)
from .errors import BadScenario, MessageTooLarge
from .scalarmul import default_table, fixed_base_table
from .textcfg import parse_kv, read_text, split_blocks

ROLES = ("leaf", "aggregator", "reader")


@dataclass(frozen=True)
class NodeSpec:
    id: str
    role: str
    children: tuple[str, ...] = ()
    reading: int | None = None


@dataclass(frozen=True)
class Scenario:
    """A validated tree; nodes are listed children-first, the order a round
    runs them in, so the root comes last."""
    nodes: dict[str, NodeSpec]
    root: str

    def leaves(self) -> list[NodeSpec]:
        return [n for n in self.nodes.values() if n.role == "leaf"]


@dataclass
class NodeStats:
    role: str
    ct_bytes: int
    ops: OpCounters


@dataclass
class RoundResult:
    """One round's output; setup counts the BSGS build and the generator and
    public-key table builds still missing, kept off every node."""
    ciphertexts: dict[str, bytes]
    recovered_sum: int
    expected_sum: int
    node_stats: dict[str, NodeStats]
    setup: OpCounters


def scenario_from_text(text: str) -> Scenario:
    """Parse and validate a scenario: one key=value block per node."""
    nodes: dict[str, NodeSpec] = {}
    for block in split_blocks(text):
        raw = parse_kv(block, BadScenario, ("id", "role"))
        nid, role = raw["id"], raw["role"]
        # the report writes whitespace-separated key=value records
        if not nid or any(ch.isspace() for ch in nid):
            raise BadScenario(f"node id {nid!r} must be non-empty with no whitespace")
        if role not in ROLES:
            raise BadScenario(f"node {nid!r}: unknown role {role!r}")
        if nid in nodes:
            raise BadScenario(f"duplicate node id {nid!r}")
        children = tuple(
            c.strip() for c in raw.get("children", "").split(",") if c.strip())
        reading = None
        if "reading" in raw:
            if role != "leaf":
                raise BadScenario(f"node {nid!r}: only leaves carry readings")
            try:
                reading = int(raw["reading"], 0)
            except ValueError:
                raise BadScenario(f"node {nid!r}: reading is not an integer") from None
            if reading < 0 or reading.bit_length() > DEFAULT_MAX_BITS:
                raise BadScenario(f"node {nid!r}: reading out of range")
        if role == "leaf" and children:
            raise BadScenario(f"leaf {nid!r} may not have children")
        nodes[nid] = NodeSpec(nid, role, children, reading)

    readers = [n for n in nodes.values() if n.role == "reader"]
    if len(readers) != 1:
        raise BadScenario(f"need exactly one reader, found {len(readers)}")
    root = readers[0].id

    # pre-order, last child first: reversed, children come before parents
    # in listed order, with no recursion limit on the tree's depth
    order: dict[str, None] = {}
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in order:
            raise BadScenario(f"node {nid!r} reached twice (cycle or shared child)")
        node = nodes.get(nid)
        if node is None:
            raise BadScenario(f"unknown child id {nid!r}")
        order[nid] = None
        stack.extend(node.children)
    orphans = nodes.keys() - order.keys()
    if orphans:
        raise BadScenario(f"nodes unreachable from the reader: {sorted(orphans)}")
    return Scenario({nid: nodes[nid] for nid in reversed(order)}, root)


def load_scenario(path) -> Scenario:
    return scenario_from_text(read_text(path, BadScenario, "scenario file"))


def fold(children, curve) -> bytes:
    """One aggregator hop: the children's ciphertext bytes decoded, added in
    listed order onto the identity, and the sum serialized once."""
    total = ct_identity(curve)
    for data in children:
        total = ct_add(total, ct_from_bytes(data, curve))
    return ct_to_bytes(total)


def run_round(tree: Scenario, keys: KeyPair, rng,
              max_bits: int = DEFAULT_MAX_BITS) -> RoundResult:
    """One aggregation round over the tree.

    Leaves without a fixed reading draw an 8-bit value from the round's
    random source, so a seeded rng makes the whole round reproducible.
    A max_bits above the reader's search ceiling, and a tree whose largest
    possible sum, worst, exceeds 2**max_bits - 1, are rejected before any
    point work.  The reader searches [0, worst] alone.
    The reader's stats cover its fold and its decryption.
    """
    if max_bits > MAX_SEARCH_BITS:
        raise MessageTooLarge(f"max_bits {max_bits} exceeds the search ceiling {MAX_SEARCH_BITS}")
    worst = sum(255 if n.reading is None else n.reading for n in tree.leaves())
    if worst.bit_length() > max_bits:
        raise MessageTooLarge(
            f"worst-case sum {worst} of {len(tree.leaves())} leaves exceeds 2**{max_bits} - 1")
    curve = keys.public_Y.curve
    with tally() as setup:
        bsgs_cache(curve, worst)
        default_table(curve)
        fixed_base_table(keys.public_Y)
    ciphertexts: dict[str, bytes] = {}
    stats: dict[str, NodeStats] = {}
    expected = 0

    for nid, node in tree.nodes.items():
        with tally() as ops:
            if node.role == "leaf":
                reading = node.reading
                if reading is None:
                    reading = rng.randrange(256)
                expected += reading
                data = ct_to_bytes(encrypt(keys.public_Y, reading, rng))
            else:
                data = fold([ciphertexts[child] for child in node.children], curve)
            if nid == tree.root:
                recovered = decrypt(keys.secret_x, ct_from_bytes(data, curve), worst)
        ciphertexts[nid] = data
        stats[nid] = NodeStats(node.role, len(data), ops)

    return RoundResult(ciphertexts, recovered, expected, stats, setup)


def emit_report(result: RoundResult) -> str:
    """Readable table plus machine-parseable record lines."""
    def cols(ops):
        return "".join(f" {getattr(ops, f):>7}" for f in FIELDS)

    def kvs(ops):
        return "".join(f" {f}={getattr(ops, f)}" for f in FIELDS)

    lines = ["node             role        bytes" + "".join(f" {f:>7}" for f in FIELDS)]
    for nid, st in result.node_stats.items():
        lines.append(f"{nid:<16} {st.role:<10} {st.ct_bytes:>6}" + cols(st.ops))
    lines.append(f"{'(setup)':<16} {'':<10} {'':>6}" + cols(result.setup))
    lines.append(f"recovered sum={result.recovered_sum} expected={result.expected_sum}")
    lines.append("")
    for nid, st in result.node_stats.items():
        lines.append(f"record node={nid} role={st.role} bytes={st.ct_bytes}" + kvs(st.ops))
    lines.append("record phase=setup" + kvs(result.setup))
    lines.append(
        f"record sum={result.recovered_sum} expected={result.expected_sum}"
        f" node_count={len(result.node_stats)}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Read the record lines back; inverse of the machine half of emit_report."""
    nodes: dict[str, dict] = {}
    out: dict = {"nodes": nodes}
    for line in text.splitlines():
        if not line.startswith("record "):
            continue
        fields = dict(part.split("=", 1) for part in line[len("record "):].split())
        if "node" in fields:
            nid = fields.pop("node")
            role = fields.pop("role")
            nodes[nid] = {"role": role, **{k: int(v) for k, v in fields.items()}}
        elif fields.pop("phase", None) == "setup":
            out["setup"] = {k: int(v) for k, v in fields.items()}
        else:
            out.update((k, int(v)) for k, v in fields.items())
    return out
