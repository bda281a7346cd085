"""End-to-end threshold-query benchmark with a per-layer budget.

Run from the repository root::

    python3 e2ebench/run.py --workload cold_scan --seed 1 --seconds 25 --trace 0

The benchmark is the HTTP client of the whole stack, all in this one
process: two in-thread ``NodeServer`` s over loopback TCP, a
``TcpTransport`` mediator, and ``WebService`` behind the asyncio door
``AsyncHttpFrontend`` with its ``AdmissionController`` (see
``deploy.py``).  The grid is the 64^3 ``mhd`` dataset.  Inputs (boxes,
thresholds, request order) come from ``--seed``; thresholds are chosen
by answer size from the oracle field, so answer sizes hold across seeds.
Every answer is compared point for point with a brute-force numpy
oracle over the full grid (``oracle.py``); a mismatch is a failed
request and fails the run.

Workloads
---------

``cold_scan``
    Closed loop, one client.  The nodes run without a semantic cache
    (``cache_capacity_bytes=None``, the paper's "no cache" column).
    GetThreshold on ``vorticity`` and ``q_criterion`` at the paper's
    selectivities (4.0e-6, 8.1e-5, 8.5e-4) over the full domain and over
    seeded sub-boxes.
    Why: answers are tiny, so the engine does nearly all the work --
    storage scan, atom decode, halo, finite-difference kernel, Morton
    range planning -- and the edge and wire almost none.  Loads
    ``repro.core.executor``, ``repro.grid``/``repro.morton``,
    ``repro.simulation.ingest``, ``repro.fields``, ``repro.storage``.
    Mechanism check: zero cache hits.

``warm_bulk``
    Closed loop, one client.  Full-domain GetThreshold with answers of
    1.0e5-2.4e5 points; an untimed warm-up caches every point of both fields first, so every timed
    query is a cache hit and the engine is bypassed.  Why: nearly all
    the time goes to cache read, the wire codec, the JSON edge and the
    client decode -- the mirror image of ``cold_scan``.  Loads
    ``repro.core.cache`` (read side), ``repro.net.transport``/``codec``/
    ``compress``, ``repro.cluster.webservice``, ``repro.net.aio`` and
    the client.  Mechanism check: cache hit ratio 1.0 and zero
    ``evaluate`` calls after warm-up.

``mixed_churn``
    Open loop at a fixed arrival rate (``MIXED_RATE`` in ``bench.py``,
    about a tenth of the mix's serial capacity on a 2-CPU host), two
    keep-alive connections, latency from the scheduled departure.  A
    fixed cycle of light ``ListFields``, small full-domain thresholds
    that hit, ``GetPdf``, ``GetTopK``, and thresholds on eight rotating
    sub-boxes at descending thresholds: each revisit is a dominance miss
    that re-evaluates and replaces its entry.  The per-node cache is
    smaller than the working set, so LRU evicts.  Why: the only
    workload where the cache and storage *write* paths work (store,
    replace, evict, ``insert_many``, MVCC) beside reads, and where the
    door's admission queue matters (one bridge slot, two connections).
    A change that speeds lookups at the cost of stores, or one class at
    the cost of another, shows here.  Mechanism check: stores,
    replacements and evictions all > 0.

Starting reference (64^3, 2-CPU host, before this benchmark existed): a
warm 258k-point vorticity answer took 1.65-2.07 s p50, of which
``WebService.handle`` was 640 ms (mediator 98 ms), the client's
``json.loads`` 504 ms and node-side Algorithm 1 21 ms -- so a warm
large answer is currently no faster than the no-cache path
(1.9-2.2 s), because the edge dominates.  A no-cache query took
445-467 ms p50 and spent 100 ms in 320 calls to ``atom_ranges_covering``.

Output
------

A ``report:`` line with the host fingerprint, the inputs and every
metric by name and unit, then one JSON line: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run (one request at a time, cycles alternating between
traced and untraced for ``trace.overhead_ratio``).  Spans of a traced
run are written to ``e2ebench/results/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("cold_scan", "warm_bulk", "mixed_churn")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: no program source at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
