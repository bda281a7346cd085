"""Tests of the benchmark's own pieces.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from oracle import Oracle  # noqa: E402
from spans import Span, critical_spans, self_times, union_length  # noqa: E402
from stats import FAILED, OK, SHED, WRONG, Outcome, summarize, tail  # noqa: E402

from repro.simulation.datasets import mhd_dataset  # noqa: E402

# -- the tail-percentile rule ----------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (200, 95.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(1, n + 1)]
    value, chosen, count = tail(samples)
    assert chosen == pct
    assert count == n
    assert sum(1 for s in samples if s > value) >= 10
    # The next candidate up would leave fewer than ten beyond it.
    assert value == samples[int(-(-pct * n // 100)) - 1]


def test_tail_with_too_few_samples_falls_back_to_the_median():
    value, chosen, count = tail([5.0, 1.0, 3.0])
    assert (value, chosen, count) == (3.0, 50.0, 3)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


def test_summary_reports_tail_percentile_and_count():
    outcomes = [Outcome("query", "scan", OK, i / 1000.0) for i in range(1, 101)]
    summary = summarize(outcomes)
    assert summary["query_tail_pct"] == 90.0
    assert summary["query_n"] == 100
    assert summary["query_tail_ms"] == pytest.approx(90.0)


# -- failure accounting ------------------------------------------------------


def test_failed_and_shed_requests_miss_the_latency_limit():
    limits = {"light": 0.1, "query": 1.0}
    outcomes = [
        Outcome("query", "churn", OK, 0.5),  # within its limit
        Outcome("query", "churn", OK, 1.5),  # too late
        Outcome("query", "churn", FAILED, 0.01),  # fast, but failed
        Outcome("light", "light", SHED, 0.001),  # fast, but shed
        Outcome("light", "light", OK, 0.05),
    ]
    summary = summarize(outcomes, limits)
    assert summary["slo_miss_rate"] == pytest.approx(3 / 5)
    assert summary["error_rate"] == pytest.approx(2 / 5)
    assert summary["failed"] == 2
    assert summary["attempted"] == 5
    # Latency summaries cover only requests that succeeded.
    assert summary["query_n"] == 2
    assert summary["light_n"] == 1


def test_wrong_answers_count_as_errors():
    outcomes = [Outcome("query", "scan", OK, 0.1), Outcome("query", "scan", WRONG, 0.1)]
    assert summarize(outcomes)["error_rate"] == pytest.approx(0.5)


# -- the oracle comparison -------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    return Oracle(mhd_dataset(side=16, timesteps=1, seed=3), ("vorticity",))


BOX = (2, 3, 1, 14, 12, 15)


def _answer(oracle, threshold):
    want = oracle.expected("vorticity", BOX, threshold)
    side = oracle.side
    points = []
    # Reverse the oracle's order: the comparison must not depend on it.
    for index, value in zip(want.index[::-1].tolist(), want.values[::-1].tolist()):
        x, rest = divmod(index, side * side)
        y, z = divmod(rest, side)
        points.append({"x": x, "y": y, "z": z, "value": value})
    return points


def test_threshold_for_count_selects_exactly_that_many(oracle):
    threshold = oracle.threshold_for_count("vorticity", BOX, 40)
    assert len(oracle.expected("vorticity", BOX, threshold).index) == 40


def test_oracle_accepts_the_exact_answer(oracle):
    threshold = oracle.threshold_for_count("vorticity", BOX, 40)
    assert oracle.check_threshold("vorticity", BOX, threshold, _answer(oracle, threshold)) is None


def test_oracle_catches_a_dropped_point(oracle):
    threshold = oracle.threshold_for_count("vorticity", BOX, 40)
    points = _answer(oracle, threshold)
    del points[17]
    assert oracle.check_threshold("vorticity", BOX, threshold, points) is not None


def test_oracle_catches_an_altered_value(oracle):
    threshold = oracle.threshold_for_count("vorticity", BOX, 40)
    points = _answer(oracle, threshold)
    points[5]["value"] = float(points[5]["value"]) * (1 + 1e-12)
    assert oracle.check_threshold("vorticity", BOX, threshold, points) is not None


def test_oracle_catches_a_moved_point(oracle):
    threshold = oracle.threshold_for_count("vorticity", BOX, 40)
    points = _answer(oracle, threshold)
    points[9]["z"] = (points[9]["z"] + 1) % oracle.side
    assert oracle.check_threshold("vorticity", BOX, threshold, points) is not None


def test_oracle_checks_topk_and_pdf(oracle):
    norms = oracle.norms["vorticity"]
    flat = norms.ravel()
    order = flat.argsort()[::-1][:5]
    side = oracle.side
    points = [
        {"x": i // (side * side), "y": i // side % side, "z": i % side, "value": float(flat[i])}
        for i in order.tolist()
    ]
    assert oracle.check_topk("vorticity", 5, points) is None
    assert oracle.check_topk("vorticity", 5, points[:4] + [points[0]]) is not None
    edges = [0.0, 1.0, 2.0]
    counts = [
        int(((flat >= 0.0) & (flat < 1.0)).sum()),
        int(((flat >= 1.0) & (flat < 2.0)).sum()),
        int((flat >= 2.0).sum()),
    ]
    assert oracle.check_pdf("vorticity", edges, counts) is None
    assert oracle.check_pdf("vorticity", edges, [counts[0] - 1, counts[1] + 1, counts[2]]) is not None


# -- span analysis ---------------------------------------------------------


def _span(sid, name, start, end, parent=None, node=None):
    return Span(sid, name, start, parent, "r", node, end=end)


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "mediator.threshold", 0.0, 10.0),
        _span(2, "wire.part", 1.0, 6.0, parent=1, node=0),
        _span(3, "wire.part", 2.0, 8.0, parent=1, node=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0)
    assert own[2] == pytest.approx(5.0)


def test_critical_path_keeps_only_the_slower_part():
    spans = [
        _span(1, "request", 0.0, 10.0),
        _span(2, "wire.part", 1.0, 4.0, parent=1, node=0),
        _span(3, "wire.part", 1.0, 9.0, parent=1, node=1),
        _span(4, "node.threshold", 1.5, 3.5, parent=2, node=0),
        _span(5, "node.threshold", 1.5, 8.5, parent=3, node=1),
    ]
    kept = {span.sid for span in critical_spans(spans)}
    assert kept == {1, 3, 5}


# -- the entry point -------------------------------------------------------


def test_run_refuses_a_tree_without_the_program(tmp_path):
    copy = tmp_path / "e2ebench"
    copy.mkdir()
    (copy / "run.py").write_text((HERE / "run.py").read_text())
    result = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cold_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
