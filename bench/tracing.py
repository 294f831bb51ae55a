"""Span recording and the statistics the benchmark reports.

Stdlib only, so the fresh-interpreter set-up probe can record spans before
numpy is imported.  Spans are recorded only by benchmark code: either
around a call the benchmark makes, or by temporarily replacing a package
function at the module attribute its caller looks it up by.
"""
from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Grid the tail percentile is chosen from (see tail_percentile).
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10


class Recorder:
    """Thread-safe in-memory span store for one run.

    A span is a dict with id, name, start, end (perf_counter seconds),
    parent (span id or None), run and thread.  A span opened on a thread
    with no open span of its own (a simulator worker) gets as parent the
    innermost span open on the thread that created the recorder.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        with self._lock:
            sid = next(self._ids)
        sp = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
              "thread": threading.get_ident(), **attrs}
        stack.append(sid)
        sp["start"] = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp["error"] = [c.__name__ for c in type(exc).__mro__]
            raise
        finally:
            sp["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


@contextmanager
def patched(targets):
    """Temporarily set module attributes: targets is [(module, attr, value)]."""
    saved = []
    try:
        for mod, attr, value in targets:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> duration minus the part of it covered by its children.

    Children on other threads can overlap each other; the union of their
    intervals is subtracted, never the sum.
    """
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {sp["id"]: (sp["end"] - sp["start"])
            - covered(children.get(sp["id"], ()), sp["start"], sp["end"])
            for sp in spans}


def layer_self_times(spans):
    """Layer (the span name's prefix before the first dot) -> summed self time."""
    st = self_times(spans)
    out = {}
    for sp in spans:
        layer = sp["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st[sp["id"]]
    return out


def _rank(p, n):
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank rule (p = 100 is the maximum)."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """Highest grid percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it; 100 (the maximum) when n is too small for any."""
    ok = [p for p in PERCENTILES if n - _rank(p, n) >= TAIL_MIN_BEYOND]
    return max(ok) if ok else 100


def latency_summary(samples, n_min):
    """Median and tail of per-operation latencies.

    The tail percentile is chosen by tail_percentile(n_min), the least
    sample count the workload guarantees, so a faster program that fits
    more samples into a run is judged at the same percentile.
    """
    p = tail_percentile(n_min)
    return {"p50": nearest_rank(samples, 50), "tail": nearest_rank(samples, p),
            "tail_percentile": p, "samples": len(samples)}


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(y) for y in ys]).slope


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an exception raised by
    the package, a non-zero CLI exit or a non-finite Monte Carlo path."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted, failed=0):
        if failed > attempted:
            raise ValueError("more failures than attempts")
        self.attempted += attempted
        self.failed += failed

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0
