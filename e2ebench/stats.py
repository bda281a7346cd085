"""Latency summaries and failure accounting."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Percentiles the tail is chosen from, highest last.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to count as the tail.
TAIL_MIN_BEYOND = 10

OK = "ok"
FAILED = "failed"  # transport error, non-200, or an error body
SHED = "shed"  # refused by admission control
WRONG = "wrong"  # answered, but not what the oracle says


def nearest_rank(ranked: list[float], pct: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` of the nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it.

    With too few samples for any candidate the median is returned as the
    tail, so the reported percentile says how little the tail means.
    """
    if not samples:
        raise ValueError("no samples")
    ranked = sorted(samples)
    chosen = TAIL_CANDIDATES[0]
    for pct in TAIL_CANDIDATES:
        if nearest_rank(ranked, pct)[1] >= TAIL_MIN_BEYOND:
            chosen = pct
    if nearest_rank(ranked, chosen)[1] < TAIL_MIN_BEYOND:
        return statistics.median(ranked), 50.0, len(ranked)
    return nearest_rank(ranked, chosen)[0], chosen, len(ranked)


@dataclass
class Outcome:
    """One attempted request.  ``latency`` is in seconds."""

    klass: str
    kind: str
    status: str
    latency: float
    points: int = 0
    detail: str = ""


def misses_limit(outcome: Outcome, limits: dict[str, float]) -> bool:
    """A request that did not succeed misses every latency limit."""
    return outcome.status != OK or outcome.latency > limits[outcome.klass]


def summarize(
    outcomes: list[Outcome], limits: dict[str, float] | None = None
) -> dict[str, float]:
    """Counts, rates and per-class latency summaries (milliseconds).

    ``error_rate`` counts failed, wrong and shed requests over attempted
    ones; ``slo_miss_rate`` (only with ``limits``) also counts requests
    that succeeded later than their class's limit.
    """
    attempted = len(outcomes)
    bad = [o for o in outcomes if o.status != OK]
    out: dict[str, float] = {
        "attempted": attempted,
        "failed": len(bad),
        "error_rate": len(bad) / attempted if attempted else 0.0,
    }
    if limits is not None:
        missed = sum(1 for o in outcomes if misses_limit(o, limits))
        out["slo_miss_rate"] = missed / attempted if attempted else 0.0
    done = [o for o in outcomes if o.status == OK]
    groups = {"all": done}
    for klass in sorted({o.klass for o in outcomes}):
        groups[klass] = [o for o in done if o.klass == klass]
    for kind in sorted({o.kind for o in outcomes}):
        groups[f"kind.{kind}"] = [o for o in done if o.kind == kind]
    for name, group in groups.items():
        if not group:
            continue
        latencies = [o.latency for o in group]
        value, pct, n = tail(latencies)
        out[f"{name}_p50_ms"] = statistics.median(latencies) * 1e3
        out[f"{name}_tail_ms"] = value * 1e3
        out[f"{name}_tail_pct"] = pct
        out[f"{name}_n"] = n
    return out
