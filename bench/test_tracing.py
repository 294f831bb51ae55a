"""Tests for the benchmark's own helpers.

Run from the root of a checkout: python3 -m pytest bench
"""
import math
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import (Recorder, Tally, covered, latency_summary,  # noqa: E402
                     layer_self_times, loglog_slope, nearest_rank, patched,
                     self_times, tail_percentile)


def span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run": "t", "thread": 0}


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [span(1, "simulator.simulate", 0.0, 10.0),
             # two worker threads whose estimator calls overlap in time
             span(2, "estimator.update_estimate", 1.0, 3.0, parent=1),
             span(3, "estimator.update_estimate", 2.0, 5.0, parent=1),
             # a child that outlives the parent only counts inside it
             span(4, "estimator.update_estimate", 9.0, 11.0, parent=1)]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[2] == pytest.approx(2.0)
    layers = layer_self_times(spans)
    assert layers["simulator"] == pytest.approx(5.0)
    assert layers["estimator"] == pytest.approx(2.0 + 3.0 + 2.0)


def test_self_time_with_nested_same_layer_spans():
    spans = [span(1, "oracle.stationarity_check", 0.0, 4.0),
             span(2, "oracle.exact_cost", 0.5, 1.5, parent=1),
             span(3, "oracle.exact_cost", 2.0, 3.0, parent=1)]
    assert layer_self_times(spans)["oracle"] == pytest.approx(4.0)
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_recorder_parents_worker_thread_spans_to_owner_span():
    rec = Recorder("run-1")
    traced = rec.wrap("estimator.update_estimate", lambda x: time.sleep(0.01) or x)
    with rec.span("simulator.simulate") as outer:
        workers = [threading.Thread(target=traced, args=(j,)) for j in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
    children = [s for s in rec.spans if s["name"] == "estimator.update_estimate"]
    assert len(children) == 4
    assert all(s["parent"] == outer["id"] and s["run"] == "run-1" for s in children)
    assert len({s["id"] for s in rec.spans}) == 5
    # the four sleeps overlap, so the parent's self time is not negative
    assert self_times(rec.spans)[outer["id"]] >= 0.0


def test_recorder_marks_errors_and_reraises():
    rec = Recorder("r")

    class RiccatiError(RuntimeError):
        pass

    def boom():
        raise RiccatiError("singular")

    with pytest.raises(RiccatiError):
        rec.wrap("riccati.solve_cre", boom)()
    (sp,) = rec.spans
    assert "RiccatiError" in sp["error"] and "RuntimeError" in sp["error"]
    assert sp["end"] >= sp["start"]


def test_patched_restores_attributes():
    import json
    orig = json.dumps
    with patched([(json, "dumps", lambda obj: "x")]):
        assert json.dumps(1) == "x"
    assert json.dumps is orig


@pytest.mark.parametrize("n, p", [(1, 100), (19, 100), (20, 50), (39, 50),
                                  (40, 75), (99, 75), (100, 90), (199, 90),
                                  (200, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    if p < 100:
        values = list(range(n))
        beyond = sum(v > nearest_rank(values, p) for v in values)
        assert beyond >= 10


def test_tail_percentile_is_the_highest_such():
    for n in range(20, 1200, 13):
        p = tail_percentile(n)
        values = list(range(n))
        higher = [q for q in (50, 75, 90, 95, 99, 99.9) if q > p]
        for q in higher:
            assert sum(v > nearest_rank(values, q) for v in values) < 10


def test_latency_summary_uses_guaranteed_count():
    samples = [float(v) for v in range(1, 201)]
    lat = latency_summary(samples, n_min=120)
    assert lat["tail_percentile"] == 90 and lat["samples"] == 200
    assert lat["p50"] == 100.0 and lat["tail"] == 180.0


def test_nearest_rank_extremes():
    assert nearest_rank([3.0, 1.0, 2.0], 100) == 3.0
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([5.0], 90) == 5.0


def test_loglog_slope_recovers_power():
    xs = [3, 10, 30]
    assert loglog_slope(xs, [2.0 * x ** 3 for x in xs]) == pytest.approx(3.0)


def test_tally_failed_ratio():
    t = Tally()
    assert t.failed_ratio == 0.0
    t.add(16384, 2)          # a Monte Carlo call with two non-finite paths
    t.add(1, 0)              # a CLI run that exited 0
    t.add(1, 1)              # a CLI run that exited non-zero
    assert (t.attempted, t.failed) == (16386, 3)
    assert math.isclose(t.failed_ratio, 3 / 16386)
    with pytest.raises(ValueError):
        t.add(1, 2)
