"""In-memory spans, self time, and the percentile rule used by the benchmark.

Stdlib only: the traced child imports this module before ``nmfseg`` so that
its own import cost stays out of ``cli.import_s``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time

# span record layout: [id, parent id (-1 for a root), name, start s, end s, attrs]
ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    """Records one span per wrapped call; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``hook(arguments, result)`` may return a dict of attributes for the
        span; it runs after the span has ended.  A hook that raises leaves
        the span without attributes rather than failing the traced call.
        """
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, time.perf_counter(), 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    rec[ATTRS] = hook(signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a hook must never change the traced program
                    rec[ATTRS] = {"hook_error": repr(exc)}
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of its interval its children cover.

    Children may overlap one another (threads) or stick out of the parent;
    only the union of their intervals clipped to the parent is subtracted.
    """
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = []
    for s in spans:
        clipped = [(max(c[START], s[START]), min(c[END], s[END])) for c in children.get(s[ID], ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((s[END] - s[START]) - _covered(clipped))
    return out


def outermost(spans: list, names) -> list:
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    names = set(names)
    by_id = {s[ID]: s for s in spans}
    picked = []
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] not in names:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            picked.append(s)
    return picked


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest integer percentile in [50, 99] whose nearest-rank value leaves at
    least ``beyond`` samples above it; 50 when even the median does not."""
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= beyond:
            best = p
    return best


def timing_summary(samples: list[float]) -> dict:
    """Median, the tail percentile chosen by :func:`tail_percentile`, and the count."""
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 50, "n": 0}
    ordered = sorted(samples)
    pct = tail_percentile(n)
    rank = max(1, math.ceil(pct * n / 100))
    tail = ordered[rank - 1] if pct > 50 else statistics.median(ordered)
    return {"p50": statistics.median(ordered), "tail": tail, "tail_pct": pct, "n": n}
