"""In-memory spans recorded around calls into eqlat, and their per-layer totals.

A span is [name, start_ns, end_ns, parent index, item id, counts].  Spans
nest through a stack, so a span opened inside another is its child.  Self
time is a span's duration minus the durations of its children; children run
one after another, so their durations never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the body as one span; yields a dict for the span's counts."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.item, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield rec[5]
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item, counts in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "item": item, "counts": counts}
                    )
                    + "\n"
                )


def summarize(spans: list[list], scale: dict) -> tuple[dict[str, dict], bool]:
    """Per span name: calls, self_ns, total_ns and summed counts.

    Times of item i are multiplied by scale[i] (wall to ref seconds).  The
    flag is True when every child lies inside its parent's interval, in the
    same item, and no span's children add up to more than its duration.
    """
    child_ns = [0] * len(spans)
    consistent = True
    for name, start, end, parent, item, _ in spans:
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start <= end <= p[2]) or p[4] != item:
                consistent = False
            child_ns[parent] += end - start
    by_name: dict[str, dict] = {}
    for i, (name, start, end, parent, item, counts) in enumerate(spans):
        dur = end - start
        self_ns = dur - child_ns[i]
        if self_ns < 0:
            consistent = False
        agg = by_name.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0, "counts": {}})
        agg["calls"] += 1
        agg["self_ns"] += self_ns * scale[item]
        agg["total_ns"] += dur * scale[item]
        for key, value in counts.items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return by_name, consistent
