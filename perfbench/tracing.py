"""In-memory span tracing from outside the program.

The tracer replaces module-level names through which one ecagg layer calls
the next (``aggsim.encrypt``, ``elgamal.to_affine``, ...) with wrappers that
record a span per call, and puts the originals back when it closes.  Nothing
under ``src/`` is edited.  Group operations inside the scalar multipliers and
all field calls are too fine to wrap; they show up as counter deltas on the
span that encloses them.

Spans live in flat ``array('q')`` columns until the run ends, because a
traced decrypt can open two thousand of them.  Span indices are handed out
on entry, so index order is start order.  One thread opens and closes spans
on a stack, so every child lies inside its parent and after its elder
siblings.
"""

from __future__ import annotations

import time
from array import array

COLUMNS = ("label", "start", "end", "parent", "item",
           "ecadd", "ecdbl", "fe_mul", "fe_inv")


class Tracer:
    """Records spans for one traced run; a context manager that restores
    every wrapped name on exit."""

    def __init__(self, op_counters):
        # op_counters: the object whose ecadd/ecdbl/fe_mul/fe_inv fields the
        # program increments (ecagg.counters.counters() for this thread)
        self._ops = op_counters
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.cols = {name: array("q") for name in COLUMNS}
        self._stack = [-1]
        self.item = -1
        self.patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def traced(self, fn, label: str):
        """fn wrapped so that each call records one span named label."""
        label_id = self._label_ids.setdefault(label, len(self._label_ids))
        if label_id == len(self.labels):
            self.labels.append(label)
        cols, stack, ops, clock = self.cols, self._stack, self._ops, time.perf_counter_ns
        c_label, c_start, c_end, c_parent, c_item = (
            cols["label"], cols["start"], cols["end"], cols["parent"], cols["item"])
        c_add, c_dbl, c_mul, c_inv = cols["ecadd"], cols["ecdbl"], cols["fe_mul"], cols["fe_inv"]

        def span(*args, **kwargs):
            idx = len(c_start)
            c_label.append(label_id)
            c_parent.append(stack[-1])
            c_item.append(self.item)
            for col in (c_end, c_add, c_dbl, c_mul, c_inv):
                col.append(0)
            a0, d0, m0, i0 = ops.ecadd, ops.ecdbl, ops.fe_mul, ops.fe_inv
            stack.append(idx)
            c_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                c_end[idx] = clock()
                stack.pop()
                c_add[idx] = ops.ecadd - a0
                c_dbl[idx] = ops.ecdbl - d0
                c_mul[idx] = ops.fe_mul - m0
                c_inv[idx] = ops.fe_inv - i0

        return span

    def wrap(self, module, name: str, label: str) -> bool:
        """Replace module.name by a traced wrapper; False when the name is absent."""
        original = getattr(module, name, None)
        if original is None:
            return False
        setattr(module, name, self.traced(original, label))
        self.patched.append((module, name, original))
        return True

    def restore(self) -> None:
        while self.patched:
            module, name, original = self.patched.pop()
            setattr(module, name, original)

    def __len__(self):
        return len(self.cols["start"])

    def self_times(self) -> list[int]:
        c = self.cols
        return self_times(c["start"], c["end"], c["parent"])

    def dump(self, path, own: list[int]) -> None:
        """Write every span as one tab-separated line, with its self time."""
        c = self.cols
        with open(path, "w") as out:
            out.write("\t".join(COLUMNS + ("self",)) + "\n")
            for i in range(len(self)):
                out.write("\t".join(
                    [self.labels[c["label"][i]]]
                    + [str(c[k][i]) for k in COLUMNS[1:]] + [str(own[i])]) + "\n")


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children of a properly nested span lie inside it without overlapping,
    so no result is negative.
    """
    own = [e - s for s, e in zip(start, end)]
    for j, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[j] - start[j]
    return own
