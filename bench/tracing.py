"""Spans recorded from outside the program, by patching module attributes.

Each layer is timed by replacing a public function under the name its
callers look it up by (``csbench.nkf.update`` for the filter loop,
``csbench.harness.solve_one`` for the harness, ...). Nothing under
``src/`` changes. Spans live in memory and are written when the run
ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import time

# Called once per solver iteration: aggregated only, never stored one by
# one, so a traced grid round does not hold a million span records.
HOT = frozenset({"nkf.predict", "nkf.update", "schedule.next_target",
                 "cp.soft_threshold"})


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, make_wrapper):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def undo(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Nested spans with per-label count, total and self time."""

    def __init__(self):
        self.totals = {}   # label -> [count, total_s, self_s]
        self.spans = []    # (label, start, end, parent index or -1)
        self._stack = []   # [label, start, child_s, record index]

    def wrap(self, label, fn):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        traced.__wrapped__ = fn
        return traced

    def _enter(self, label):
        index = -1
        if label not in HOT:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((label, 0.0, 0.0, parent))
        self._stack.append([label, time.perf_counter(), 0.0, index])

    def _leave(self):
        end = time.perf_counter()
        label, start, child, index = self._stack.pop()
        duration = end - start
        entry = self.totals.get(label)
        if entry is None:
            entry = self.totals[label] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (label, start, end, self.spans[index][3])

    def count(self, label) -> int:
        return self.totals.get(label, (0, 0.0, 0.0))[0]

    def total(self, label) -> float:
        return self.totals.get(label, (0, 0.0, 0.0))[1]

    def self_time(self, label) -> float:
        return self.totals.get(label, (0, 0.0, 0.0))[2]

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "totals": {k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.totals.items())},
                "spans": self.spans,
            }, fh)
            fh.write("\n")
