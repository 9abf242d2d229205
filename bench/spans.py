"""In-memory trace spans and the statistics the benchmark derives from them.

A span is one timed call at a layer boundary.  Spans are kept in a list while
the workload runs and written out once at the end, so the only per-call cost
is two clock reads and one object.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# A tail percentile is reported only where at least this many samples lie
# beyond it (choosing-metrics guide, section 1).
TAIL_SAMPLES = 10


class Span:
    __slots__ = ("name", "start", "end", "parent", "variant")

    def __init__(self, name, start, end=None, parent=-1, variant=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.variant = variant

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counts for one workload run.

    ``variant`` is set by the caller while a variant trains or evaluates, and
    every span opened meanwhile carries it.
    """

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.variant: str | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, self.clock(), None, parent, self.variant))
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """End span ``sid`` and any span still open inside it.

        Inner spans are left open only when an exception unwound past their
        boundary; they end at the same instant as ``sid``.
        """
        now = self.clock()
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = now
            if top == sid:
                return
        raise ValueError(f"span {sid} is not open")

    def top(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(self.spans[s].name == name for s in self.stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, ids."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "workload": self.workload,
                    "variant": s.variant,
                }) + "\n")


def union_seconds(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives its
    parent cannot make self time negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = union_seconds(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(i, ())
            if c.end > s.start and c.start < s.end
        )
        out.append(s.seconds - covered)
    return out


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name.

    Summing these counts recursive or nested calls into one layer once.
    """
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def tail_percentile(n: int, beyond: int = TAIL_SAMPLES) -> int | None:
    """The highest whole percentile with at least ``beyond`` of ``n`` distinct
    samples strictly above it (with numpy's default linear interpolation), or
    None when no percentile has that many.

    Samples above percentile p number n - 1 - floor((n - 1) p / 100), so the
    condition is p (n - 1) < 100 (n - beyond).
    """
    if n <= beyond:
        return None
    return (100 * (n - beyond) - 1) // (n - 1)


def metric_suffix(variant_name: str) -> str:
    """Variant name as a metric name component: '+' becomes '-'."""
    return variant_name.replace("+", "-")
