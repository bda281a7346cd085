"""Seeded request sequences of the three workloads, and their drivers.

A workload is an endless sequence of *cycles*; a cycle is a list of
:class:`Request` objects whose class mix is the same in every cycle, so
a run that stops on a cycle boundary always measures the same mix.
Every request carries the oracle check of its own answer.
"""

from __future__ import annotations

import http.client
import random
import resource
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from client import HttpClient, Reply
from oracle import Oracle
from stats import FAILED, OK, SHED, WRONG, Outcome

DATASET = "mhd"
FIELDS = ("vorticity", "q_criterion")
#: mixed_churn's churn field.  Apart from FIELDS, so that replacing a
#: churn entry never replaces a hit entry that covers the same box; one
#: field (with vorticity's kernel cost), so that every seed's churn
#: requests cost the same.
CHURN_FIELD = "electric_current"
#: Paper selectivities (Table 1 / Fig. 9): share of grid points returned.
SELECTIVITIES = (4.0e-6, 8.1e-5, 8.5e-4)
#: Shed codes the admission layer may answer with.
SHED_CODES = {"quota_exceeded", "queue_full", "queue_timeout", "overloaded"}


@dataclass
class Request:
    """One request of a workload, with the oracle check of its answer."""

    klass: str  # "light" or "query", as the door's admission classifies
    kind: str  # the workload's own traffic class
    body: dict
    check: Callable[[dict], "str | None"]


def _light() -> Request:
    def check(body: dict) -> str | None:
        fields = body.get("fields", [])
        missing = [name for name in FIELDS if name not in fields]
        return f"ListFields lacks {missing}" if missing else None

    return Request("light", "light", {"method": "ListFields"}, check)


def _threshold(
    oracle: Oracle, kind: str, field: str, box: tuple[int, ...], count: int
) -> Request:
    """A GetThreshold whose answer is the ``count`` largest norms in ``box``."""
    return _threshold_at(
        oracle, kind, field, box, oracle.threshold_for_count(field, box, count)
    )


def _threshold_at(
    oracle: Oracle, kind: str, field: str, box: tuple[int, ...], threshold: float
) -> Request:
    body = {
        "method": "GetThreshold",
        "dataset": DATASET,
        "field": field,
        "timestep": 0,
        "threshold": threshold,
        "box": list(box),
    }
    return Request(
        "query",
        kind,
        body,
        lambda answer: oracle.check_threshold(
            field, box, threshold, answer.get("points", [])
        ),
    )


def _random_box(rng: random.Random, side: int, lo: int, hi: int) -> tuple[int, ...]:
    """A box with each edge drawn from ``[lo, hi]``, placed at random."""
    edges = [rng.randint(lo, hi) for _ in range(3)]
    corner = [rng.randint(0, side - edge) for edge in edges]
    return tuple(corner) + tuple(c + e for c, e in zip(corner, edges))


def _volume(box: tuple[int, ...]) -> int:
    return (box[3] - box[0]) * (box[4] - box[1]) * (box[5] - box[2])


# -- cold_scan -----------------------------------------------------------


def cold_scan(oracle: Oracle, seed: int) -> Iterator[list[Request]]:
    """Full-domain and sub-box scans at the paper's selectivities.

    A cycle is the six full-domain (field, selectivity) queries plus
    three seeded sub-boxes, shuffled.  Full-domain queries are two
    thirds of a cycle, so the median sits inside their latency mode,
    not on a mode boundary.
    """
    rng = random.Random(seed)
    side = oracle.side
    full = (0, 0, 0, side, side, side)
    while True:
        queries = [
            _threshold(oracle, "scan", field, full, round(s * side**3))
            for field in FIELDS
            for s in SELECTIVITIES
        ]
        for _ in range(3):
            box = _random_box(rng, side, side // 4, side // 2)
            field = rng.choice(FIELDS)
            share = rng.choice(SELECTIVITIES)
            queries.append(
                _threshold(oracle, "scan", field, box, round(share * _volume(box)))
            )
        rng.shuffle(queries)
        yield queries


# -- warm_bulk -----------------------------------------------------------

#: Answer sizes of a warm_bulk cycle: eight evenly spaced levels.
BULK_POINTS = tuple(100_000 + i * 20_000 for i in range(8))


def warm_bulk(oracle: Oracle, seed: int) -> tuple[list[Request], Iterator[list[Request]]]:
    """Large cached answers: ``(warm-up requests, cycles)``.

    The eight queries are drawn once: one full-domain query per
    :data:`BULK_POINTS` level, each on a random field.  The untimed
    warm-up caches every point of both fields (threshold 0), so every
    timed query is a dominance hit on every node, and the work of a
    query does not depend on the seed.  (Sub-box queries would make it
    depend on the box: the cache's Morton range cover of a box varies
    with its shape and placement.)
    """
    rng = random.Random(seed)
    side = oracle.side
    full = (0, 0, 0, side, side, side)
    queries = [
        _threshold(oracle, "bulk", rng.choice(FIELDS), full, points)
        for points in BULK_POINTS
    ]
    warmup = [_threshold_at(oracle, "warmup", field, full, 0.0) for field in FIELDS]

    def cycles() -> Iterator[list[Request]]:
        while True:
            order = list(queries)
            rng.shuffle(order)
            yield order

    return warmup, cycles()


# -- mixed_churn ---------------------------------------------------------

#: Churn slots, visited round-robin.  Slot ``j``'s box lies inside
#: octant ``j`` of the domain, so its entry is one piece on one node.
#: Each visit lowers the slot's threshold so its answer grows by
#: CHURN_GROWTH -- a dominance miss that re-evaluates and replaces the
#: entry; after CHURN_VISITS visits the slot moves to a new box in its
#: octant and the old entry is dead.  Slots start at staggered visits,
#: so one slot moves per round.
CHURN_SLOTS = 8
#: A slot's box edge, and its least distance from its octant's faces:
#: the fourth-order stencil's halo (2 points) then stays inside the
#: octant, on the box's own node, and box plus halo always spans the
#: same 4^3 atoms -- so a churn request's work does not depend on where
#: the seed puts the box.
CHURN_EDGE = 24
CHURN_MARGIN = 2
CHURN_START_POINTS = 100
CHURN_GROWTH = 1.25
CHURN_VISITS = 8
TOPK_K = 32
#: Per-node semantic-cache budget of mixed_churn (20 bytes per cached
#: point, 1,536 points).  A node's four live slot entries swing between
#: about 580 and 1,410 points over eight rounds; with about 220 points of
#: hit entries and the dead entries that is more than fits, so LRU evicts
#: slot and dead entries -- touched once a round, 4/3 of a cycle -- while
#: the hit entries, read once a cycle, stay.
CHURN_CACHE_BYTES = 30 * 1024

#: One cycle's traffic, in a fixed order so that every entry's recency,
#: and hence what LRU evicts, is the same for every seed: six light
#: requests and ten queries.  Six of the ten are churn, so the query
#: median falls inside the churn latency mode, not between modes.
MIXED_CYCLE = (
    "light", "hit", "churn", "light", "churn", "pdf", "churn", "light",
    "hit", "churn", "light", "topk", "churn", "light", "churn", "light",
)


def mixed_churn(oracle: Oracle, seed: int) -> tuple[list[Request], Iterator[list[Request]]]:
    """Mixed traffic over a cache smaller than its working set.

    ``(warm-up requests, cycles)``.  The warm-up plays one round of
    churn, then makes the hit entries and the PDF resident; each cycle
    re-reads both hit entries, so LRU keeps them.  The seed places the
    churn boxes.
    """
    rng = random.Random(seed)
    side = oracle.side
    full = (0, 0, 0, side, side, side)
    hits = [
        _threshold(oracle, "hit", field, full, round(SELECTIVITIES[-1] * side**3))
        for field in FIELDS
    ]
    edges = sorted(
        float(v) for v in np.quantile(oracle.norms["vorticity"], (0.1, 0.5, 0.9, 0.99))
    )
    pdf = Request(
        "query",
        "pdf",
        {
            "method": "GetPdf",
            "dataset": DATASET,
            "field": "vorticity",
            "timestep": 0,
            "bin_edges": edges,
        },
        lambda answer: oracle.check_pdf("vorticity", edges, answer.get("counts", [])),
    )
    topk = Request(
        "query",
        "topk",
        {
            "method": "GetTopK",
            "dataset": DATASET,
            "field": "vorticity",
            "timestep": 0,
            "k": TOPK_K,
        },
        lambda answer: oracle.check_topk("vorticity", TOPK_K, answer.get("points", [])),
    )
    slots = [_new_slot(rng, side, octant, visit=octant) for octant in range(CHURN_SLOTS)]
    # Rounds start at the slots whose live entries are largest, and the
    # warm-up plays one round, so the cache is full when timing starts.
    visits = [CHURN_SLOTS // 2]

    def churn() -> Request:
        octant = visits[0] % CHURN_SLOTS
        visits[0] += 1
        slot = slots[octant]
        if slot["visit"] == CHURN_VISITS:
            slot = slots[octant] = _new_slot(rng, side, octant, visit=0)
        points = round(CHURN_START_POINTS * CHURN_GROWTH ** slot["visit"])
        slot["visit"] += 1
        return _threshold(oracle, "churn", CHURN_FIELD, slot["box"], points)

    def cycles() -> Iterator[list[Request]]:
        while True:
            fresh = iter(hits)
            cycle = []
            for kind in MIXED_CYCLE:
                if kind == "light":
                    cycle.append(_light())
                elif kind == "hit":
                    cycle.append(next(fresh))
                elif kind == "pdf":
                    cycle.append(pdf)
                elif kind == "topk":
                    cycle.append(topk)
                else:
                    cycle.append(churn())
            yield cycle

    warmup = [churn() for _ in range(CHURN_SLOTS)] + hits + [pdf]
    return warmup, cycles()


def _new_slot(rng: random.Random, side: int, octant: int, visit: int) -> dict:
    """A churn box inside ``octant`` (bit 0: x, bit 1: y, bit 2: z half)."""
    half = side // 2
    corner = [
        (octant >> axis & 1) * half
        + rng.randint(CHURN_MARGIN, half - CHURN_EDGE - CHURN_MARGIN)
        for axis in range(3)
    ]
    return {
        "box": tuple(corner) + tuple(c + CHURN_EDGE for c in corner),
        "visit": visit,
    }


# -- drivers -------------------------------------------------------------


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process (every thread)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def judge(request: Request, reply: Reply | None, error: str = "") -> tuple[str, str, int]:
    """``(status, detail, points)`` of one reply against the oracle."""
    if reply is None:
        return FAILED, error, 0
    body = reply.body
    if not isinstance(body, dict):
        return FAILED, f"HTTP {reply.status} with an undecodable body", 0
    if body.get("code") in SHED_CODES:
        return SHED, str(body.get("code")), 0
    if reply.status != 200 or body.get("status") != "ok":
        return FAILED, f"HTTP {reply.status}: {body.get('code')} {body.get('message')}", 0
    wrong = request.check(body)
    points = len(body.get("points", ()))
    if wrong is not None:
        return WRONG, wrong, points
    return OK, "", points


def send(client: HttpClient, request: Request) -> tuple[Reply | None, str, float]:
    """``(reply or None, error, seconds)``: one request, timed to decode."""
    started = time.perf_counter()
    try:
        reply = client.post(request.body)
    except (OSError, http.client.HTTPException) as error:
        return None, f"{type(error).__name__}: {error}", time.perf_counter() - started
    return reply, "", reply.decoded - reply.sent


@dataclass
class LoopResult:
    outcomes: list[Outcome]
    seconds: float  # measured wall seconds
    cpu_seconds: float  # process CPU over the measured window
    lateness: list[float]  # open loop only: departure minus schedule
    #: ``(seconds, outcomes)`` of each measured cycle; one entry for an
    #: open loop, whose cycles overlap.
    cycles: list[tuple[float, list[Outcome]]]


def warm(client: HttpClient, requests: list[Request]) -> list[Outcome]:
    """Send untimed warm-up requests; their answers are checked too."""
    outcomes = []
    for request in requests:
        reply, error, _ = send(client, request)
        status, detail, points = judge(request, reply, error)
        outcomes.append(Outcome(request.klass, request.kind, status, 0.0, points, detail))
    return outcomes


def closed_loop(
    client: HttpClient,
    cycles: Iterator[list[Request]],
    seconds: float,
    on_request: Callable[[int, Request], None] | None = None,
    on_reply: Callable[[int, Request, "Reply | None"], None] | None = None,
) -> LoopResult:
    """One client, next request after the previous reply, whole cycles.

    Only the requests are on the clock: answers are checked between
    them, and the run stops on the first cycle boundary after
    ``seconds`` of measured time.  ``on_request``/``on_reply`` bracket
    each request (the traced run's hooks); they run off the clock.
    """
    outcomes: list[Outcome] = []
    per_cycle: list[tuple[float, list[Outcome]]] = []
    busy = cpu = 0.0
    index = 0
    while True:
        cycle_started = busy
        first = len(outcomes)
        for request in next(cycles):
            if on_request is not None:
                on_request(index, request)
            cpu_before = cpu_seconds()
            reply, error, latency = send(client, request)
            cpu += cpu_seconds() - cpu_before
            if on_reply is not None:
                on_reply(index, request, reply)
            busy += latency
            status, detail, points = judge(request, reply, error)
            outcomes.append(
                Outcome(request.klass, request.kind, status, latency, points, detail)
            )
            index += 1
        per_cycle.append((busy - cycle_started, outcomes[first:]))
        if busy >= seconds:
            return LoopResult(outcomes, busy, cpu, [], per_cycle)


def open_loop(
    port: int,
    cycles: Iterator[list[Request]],
    rate: float,
    seconds: float,
    connections: int,
) -> LoopResult:
    """Requests depart on a fixed schedule of ``rate`` per second.

    The schedule is the whole cycles that cover ``seconds``.
    ``connections`` keep-alive clients, one thread each, take the next
    due request in turn.  Latency runs from the scheduled departure, so
    time a request waits for a free connection counts; how late each
    request actually left is kept in ``lateness``.  Answers are checked
    after the run, off the clock.
    """
    schedule: list[Request] = []
    while len(schedule) < rate * seconds:
        schedule.extend(next(cycles))
    done: list[tuple[Reply | None, str, float, float] | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.2

    def worker(client: HttpClient) -> None:
        try:
            while True:
                with lock:
                    slot = next(cursor, None)
                if slot is None:
                    return
                due = start + slot / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                departed = time.perf_counter()
                reply, error, _ = send(client, schedule[slot])
                done[slot] = (reply, error, time.perf_counter() - due, departed - due)
        finally:
            client.close()

    cpu_before = cpu_seconds()
    threads = [
        threading.Thread(target=worker, args=(HttpClient(port, tenant=f"gen{i}"),))
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=len(schedule) / rate + 120.0)
        if thread.is_alive():
            raise RuntimeError("open-loop generator thread did not finish")
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu_before
    outcomes = []
    lateness = []
    for request, (reply, error, latency, late) in zip(schedule, done):
        status, detail, points = judge(request, reply, error)
        outcomes.append(Outcome(request.klass, request.kind, status, latency, points, detail))
        lateness.append(late)
    return LoopResult(outcomes, wall, cpu, lateness, [(wall, outcomes)])
