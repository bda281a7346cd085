"""One benchmark run: set-up, warm-up, measured loop, checks, metrics.

Imported by ``run.py`` once the program's ``src`` directory is on the
path; see ``run.py`` for the workloads and why each exists.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import deploy
import workloads
from client import HttpClient
from oracle import Oracle
from stats import OK, WRONG, Outcome, summarize
from spans import Span, Tracer, critical_spans, group_of, self_times, union_length

from repro.simulation.datasets import mhd_dataset

RESULTS = Path(__file__).resolve().parent / "results"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Per-node semantic-cache budget by workload (``None``: no cache).
CACHE_BYTES = {
    "cold_scan": None,
    "warm_bulk": 256 * 1024 * 1024,
    "mixed_churn": workloads.CHURN_CACHE_BYTES,
}
#: mixed_churn arrival rate, requests per second: about a tenth of the
#: mix's serial capacity (the traced run's ``serial_capacity_rps``,
#: about 50/s on a 2-CPU host).
MIXED_RATE = 5.0
#: mixed_churn keep-alive connections (and generator threads).
MIXED_CONNECTIONS = min(2, os.cpu_count() or 1)
#: mixed_churn per-class latency limits, seconds.
LATENCY_LIMITS = {"light": 0.25, "query": 2.0}
#: The open-loop generator is behind -- the run is invalid -- when its
#: median departure is later than this share of the arrival gap, or
#: any departure is later than MAX_LATENESS_S.
MAX_MEDIAN_LATENESS_SHARE = 0.25
MAX_LATENESS_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "points_per_s": "1/s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mib": "MiB",
}


class InvalidRun(Exception):
    """The run did not exercise what it exists to measure."""


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def steal_seconds() -> float:
    """CPU seconds the hypervisor gave to others (``/proc/stat``), or 0."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def make_workload(name: str, oracle: Oracle, seed: int):
    """``(warm-up requests, cycles)`` of a workload."""
    if name == "cold_scan":
        return [], workloads.cold_scan(oracle, seed)
    if name == "warm_bulk":
        return workloads.warm_bulk(oracle, seed)
    return workloads.mixed_churn(oracle, seed)


def set_up(name: str, tracer: Tracer | None) -> tuple[list[float], deploy.Deployment]:
    """``SETUP_REPS`` full set-ups; the last deployment stays up."""
    seconds = []
    factory = tracer.kernel_registry if tracer is not None else None
    deployment = None
    for rep in range(SETUP_REPS):
        if deployment is not None:
            deployment.close()
        if tracer is not None:
            tracer.request = f"setup{rep}"
        try:
            deployment = deploy.Deployment(CACHE_BYTES[name], factory)
        finally:
            if tracer is not None:
                tracer.request = None
        seconds.append(deployment.setup_seconds)
    assert deployment is not None
    return seconds, deployment


def counters(deployment: deploy.Deployment, client: HttpClient) -> dict[str, float]:
    """Public counters: node caches, node storage, and ``GET /stats``."""
    out: dict[str, float] = {}
    for key, value in deployment.cache_stats().items():
        out[f"cache.{key}"] = float(value)
    for key, value in deployment.storage_stats().items():
        out[f"storage.{key}"] = value
    for line in client.get_text("/stats").splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        out[f"stats.{name}"] = out.get(f"stats.{name}", 0.0) + float(value)
    return out


def delta(before: dict[str, float], after: dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def check_mechanism(name: str, before: dict, after: dict) -> dict[str, float]:
    """The workload still exercises its layer; raises :class:`InvalidRun`."""
    seen = {
        "cache_hits": delta(before, after, "cache.hits"),
        "cache_misses": delta(before, after, "cache.misses"),
        "node_cache_hits": delta(before, after, "stats.semantic_cache_hits_total"),
        "cache_stored_points": delta(before, after, "cache.stored_points"),
        "cache_replacements": delta(before, after, "cache.dominance_rejections"),
        "cache_evictions": delta(before, after, "cache.evictions"),
    }
    if name == "cold_scan" and (seen["cache_hits"] or seen["node_cache_hits"]):
        raise InvalidRun(f"cold_scan saw cache hits: {seen}")
    if name == "warm_bulk" and (seen["cache_misses"] or not seen["cache_hits"]):
        # A miss is the only path to evaluate(); no miss, no evaluation.
        raise InvalidRun(f"warm_bulk is not all cache hits: {seen}")
    if name == "mixed_churn" and not (
        seen["cache_stored_points"] > 0
        and seen["cache_replacements"] > 0
        and seen["cache_evictions"] > 0
    ):
        raise InvalidRun(f"mixed_churn lacks stores, replacements or evictions: {seen}")
    return seen


def run(args) -> int:
    report: dict = {
        "workload": args.workload,
        "host": host_fingerprint(),
        "inputs": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "dataset": deploy.DATASET,
            "grid_side": deploy.SIDE,
            "nodes": deploy.NODES,
            "door_max_inflight": deploy.MAX_INFLIGHT,
            "cache_capacity_bytes": CACHE_BYTES[args.workload],
        },
    }
    if args.workload == "mixed_churn":
        report["inputs"].update(
            arrival_rate_per_s=MIXED_RATE,
            connections=MIXED_CONNECTIONS,
            latency_limits_s=LATENCY_LIMITS,
        )
    oracle = Oracle(
        mhd_dataset(side=deploy.SIDE, timesteps=deploy.TIMESTEPS, seed=deploy.DATASET_SEED),
        workloads.FIELDS + (workloads.CHURN_FIELD,),
    )
    warmup, cycles = make_workload(args.workload, oracle, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup_seconds, deployment = set_up(args.workload, tracer)
        try:
            if tracer is None:
                outcomes, metrics = measure(
                    args, deployment, warmup, cycles, setup_seconds, report
                )
            else:
                outcomes, metrics = traced(
                    args, deployment, tracer, warmup, cycles, report
                )
        finally:
            deployment.close()
    except InvalidRun as invalid:
        print("report: " + json.dumps(report, sort_keys=True))
        sys.stderr.write(f"e2ebench: invalid run: {invalid}\n")
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    wrong = [o for o in outcomes if o.status == WRONG]
    failed = [o for o in outcomes if o.status != OK]
    report["metrics"] = metrics
    report["first_failures"] = [
        f"{o.kind}: {o.status}: {o.detail}" for o in failed[:5]
    ]
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


# -- untraced run: the end-to-end metrics ----------------------------------


def measure(args, deployment, warmup, cycles, setup_seconds, report):
    client = HttpClient(deployment.port)
    try:
        outcomes = workloads.warm(client, warmup)
        before = counters(deployment, client)
        steal_before = steal_seconds()
        if args.workload == "mixed_churn":
            loop = workloads.open_loop(
                deployment.port, cycles, MIXED_RATE, args.seconds, MIXED_CONNECTIONS
            )
        else:
            loop = workloads.closed_loop(client, cycles, args.seconds)
        after = counters(deployment, client)
    finally:
        client.close()
    outcomes += loop.outcomes
    limits = LATENCY_LIMITS if args.workload == "mixed_churn" else None
    summary = summarize(loop.outcomes, limits)
    report["summary"] = summary
    report["setup_runs_s"] = setup_seconds
    report["measured_s"] = loop.seconds
    report["host_steal_s"] = steal_seconds() - steal_before
    if loop.lateness:
        lateness = {
            "median_s": statistics.median(loop.lateness),
            "max_s": max(loop.lateness),
        }
        report["generator_lateness"] = lateness
        if (
            lateness["median_s"] > MAX_MEDIAN_LATENESS_SHARE / MIXED_RATE
            or lateness["max_s"] > MAX_LATENESS_S
        ):
            raise InvalidRun(f"the open-loop generator fell behind: {lateness}")
    report["mechanism"] = check_mechanism(args.workload, before, after)
    completed = [o for o in loop.outcomes if o.status == OK]
    # Rates are medians over cycles, so a stall in one cycle moves them
    # no more than it moves the median latency.
    query_rates = [
        sum(1 for o in done if o.status == OK and o.klass == "query") / seconds
        for seconds, done in loop.cycles
    ]
    point_rates = [
        sum(o.points for o in done if o.status == OK) / seconds
        for seconds, done in loop.cycles
    ]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "latency_p50_ms": summary.get("query_p50_ms", 0.0),
        "latency_tail_ms": summary.get("query_tail_ms", 0.0),
        "throughput_qps": statistics.median(query_rates),
        "points_per_s": statistics.median(point_rates),
        "cpu_ms_per_query": loop.cpu_seconds * 1e3 / max(1, len(completed)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    # End-to-end metrics printed here but left out of BENCHMARK.json:
    # rates that are 0 on a correct run, and mixed_churn's per-class
    # latencies -- ``query_*`` is ``latency_*``, and the millisecond
    # light class varies too much from run to run on a shared 2-vCPU
    # host to hold within the largest bound BENCHMARK.json allows.
    extra = {"error_rate": (summary["error_rate"], "ratio")}
    if limits is not None:
        extra["slo_miss_rate"] = (summary["slo_miss_rate"], "ratio")
        for name in ("light_p50_ms", "light_tail_ms", "query_p50_ms", "query_tail_ms"):
            extra[name] = (summary.get(name, 0.0), "ms")
    report["report_only_metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()
    }
    return outcomes, metrics


# -- traced run: the per-layer metrics -------------------------------------


def traced(args, deployment, tracer: Tracer, warmup, cycles, report):
    """Cycles alternate untraced / traced, one request at a time."""
    client = HttpClient(deployment.port)
    outcomes: list[Outcome] = []
    wall = {False: 0.0, True: 0.0}
    traced_queries = 0
    totals: dict[str, float] = defaultdict(float)
    try:
        outcomes += workloads.warm(client, warmup)
        cycle_no = 0
        while cycle_no % 2 or min(wall.values()) < args.seconds / 2:
            on = cycle_no % 2 == 1
            if on:
                before = counters(deployment, client)
                loop = workloads.closed_loop(
                    client, iter([next(cycles)]), 0.0,
                    lambda index, _: tracer.start_request(f"{cycle_no}.{index}"),
                    lambda _index, _request, reply: tracer.finish_request(reply),
                )
                traced_queries += sum(1 for o in loop.outcomes if o.klass == "query")
                after = counters(deployment, client)
                for key in set(before) | set(after):
                    totals[key] += delta(before, after, key)
            else:
                loop = workloads.closed_loop(client, iter([next(cycles)]), 0.0)
            outcomes += loop.outcomes
            wall[on] += loop.seconds
            cycle_no += 1
    finally:
        client.close()
    report["mechanism"] = check_mechanism(args.workload, {}, totals)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(RESULTS.parent.parent))
    values = layer_metrics(tracer.spans, traced_queries, totals)
    evaluations = values["executor.evaluate_calls"][0]
    if args.workload == "warm_bulk" and evaluations:
        raise InvalidRun(f"warm_bulk evaluated {evaluations} times per request")
    values["trace.overhead_ratio"] = (wall[True] / wall[False], "ratio")
    report["traced_queries"] = traced_queries
    plain = [o for o in outcomes if o.kind not in ("warmup",)]
    report["serial_capacity_rps"] = len(plain) / sum(wall.values())
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(values.items())
    }
    return outcomes, metrics


def layer_metrics(spans: list[Span], queries: int, totals: dict[str, float]):
    """Layer budget per traced query: ``name -> (value, unit)``.

    Light requests' spans count toward the totals; the divisor is the
    number of query-class requests, the work each workload exists for.
    """
    by_request: dict[object, list[Span]] = defaultdict(list)
    for span in spans:
        by_request[span.request].append(span)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    shares: dict[str, float] = defaultdict(float)
    door = unattributed = wall = 0.0
    setups: dict[str, list[float]] = defaultdict(list)
    for request, group in by_request.items():
        own_times = self_times(group)
        if str(request).startswith("setup"):
            load = [s for s in group if s.name == "setup.load"]
            synth = [s for s in group if s.name == "setup.synthesize"]
            setups["synthesize"].append(sum(s.duration for s in synth))
            setups["ingest"].append(sum(own_times[s.sid] for s in load))
            continue
        root = next(s for s in group if s.name == "request")
        for span in group:
            dur[span.name] += span.duration
            own[span.name] += own_times[span.sid]
            calls[span.name] += 1
            for key, value in span.attrs.items():
                attrs[f"{span.name}.{key}"] += value
        handle = sum(s.duration for s in group if s.name == "webservice.handle")
        decode = sum(s.duration for s in group if s.name == "client.decode")
        door += root.duration - handle - decode
        wall += root.duration
        critical = critical_spans(group)
        covered = union_length([(s.start, s.end) for s in critical if s is not root])
        unattributed += root.duration - covered
        for span in critical:
            layer = group_of(span.name)
            if layer is not None:
                shares[layer] += own_times[span.sid]
    n = max(1, queries)

    def per(value: float) -> float:
        return value / n

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    mediator_self = sum(v for k, v in own.items() if k.startswith("mediator."))
    node_names = ("node.threshold", "node.pdf", "node.topk")
    out = {
        "executor.evaluate_s": (per(dur["executor.evaluate"]), "s/query"),
        "executor.self_s": (per(own["executor.evaluate"]), "s/query"),
        "executor.halo_s": (per(dur["executor.halo"]), "s/query"),
        "executor.evaluate_calls": (per(calls["executor.evaluate"]), "count/query"),
        "grid.atom_ranges_s": (per(dur["grid.atom_ranges"]), "s/query"),
        "grid.atom_ranges_calls": (per(calls["grid.atom_ranges"]), "count/query"),
        "ingest.decode_s": (per(dur["ingest.decode"]), "s/query"),
        "ingest.decode_calls": (per(calls["ingest.decode"]), "count/query"),
        "fields.kernel_s": (per(dur["fields.kernel"]), "s/query"),
        "fields.kernel_points": (per(attrs["fields.kernel.points"]), "count/query"),
        "fields.kernel_bytes": (per(attrs["fields.kernel.bytes"]), "B/query"),
        "storage.read_atoms_s": (per(dur["storage.read_atoms"]), "s/query"),
        "storage.atoms_read": (per(attrs["storage.read_atoms.atoms"]), "count/query"),
        "storage.bytes_read": (per(attrs["storage.read_atoms.bytes"]), "B/query"),
        "storage.bufferpool_hit_ratio": (
            ratio(totals["storage.bufferpool_hits"], totals["storage.bufferpool_misses"]),
            "ratio",
        ),
        "storage.wal_flushes": (per(totals["storage.wal_flushes"]), "count/query"),
        "storage.wal_bytes": (per(totals["storage.wal_flushed_bytes"]), "B/query"),
        "storage.txn_conflicts": (per(totals["storage.txn_conflicts"]), "count/query"),
        "webservice.handle_s": (per(dur["webservice.handle"]), "s/query"),
        "webservice.self_s": (per(own["webservice.handle"]), "s/query"),
        "aio.door_self_s": (per(door), "s/query"),
        "aio.encode_s": (per(dur["aio.encode"]), "s/query"),
        "aio.queue_wait_s": (per(totals["stats.aio_queue_wait_seconds_sum"]), "s/query"),
        "admission.shed_total": (totals["stats.aio_sheds_total"], "count"),
        "client.decode_s": (per(dur["client.decode"]), "s/query"),
        "client.response_bytes": (per(attrs["client.decode.bytes"]), "B/query"),
        "wire.part_s": (per(dur["wire.part"]), "s/query"),
        "wire.self_s": (per(own["wire.part"]), "s/query"),
        "wire.bytes": (
            per(totals["stats.rpc_bytes_sent_total"] + totals["stats.rpc_bytes_received_total"]),
            "B/query",
        ),
        "wire.raw_bytes": (per(attrs["wire.part.raw_bytes"]), "B/query"),
        "wire.retries": (per(totals["stats.rpc_retries_total"]), "count/query"),
        "cache.lookup_s": (per(dur["cache.lookup"]), "s/query"),
        "cache.lookup_calls": (per(calls["cache.lookup"]), "count/query"),
        "cache.hit_ratio": (ratio(totals["cache.hits"], totals["cache.misses"]), "ratio"),
        "cache.store_s": (per(dur["cache.store"]), "s/query"),
        "cache.store_calls": (per(calls["cache.store"]), "count/query"),
        "cache.replacements": (per(attrs["cache.store.replaced"]), "count/query"),
        "cache.evictions": (per(totals["cache.evictions"]), "count/query"),
        "cache.chunks_pruned": (per(totals["cache.chunks_pruned"]), "count/query"),
        "mediator.threshold_s": (per(dur["mediator.threshold"]), "s/query"),
        "mediator.self_s": (per(mediator_self), "s/query"),
        "partition.query_boxes_s": (per(dur["partition.query_boxes"]), "s/query"),
        "partition.query_boxes_calls": (per(calls["partition.query_boxes"]), "count/query"),
        "node.threshold_s": (per(dur["node.threshold"]), "s/query"),
        "node.threshold_calls": (per(calls["node.threshold"]), "count/query"),
        "node.self_s": (per(sum(own[name] for name in node_names)), "s/query"),
        "setup.synthesize_s": (statistics.median(setups["synthesize"] or [0.0]), "s"),
        "setup.ingest_s": (statistics.median(setups["ingest"] or [0.0]), "s"),
        "trace.unattributed_share": (unattributed / wall if wall else 0.0, "ratio"),
    }
    for layer in ("engine", "cache", "wire", "mediator", "edge"):
        out[f"share.{layer}"] = (shares[layer] / wall if wall else 0.0, "ratio")
    return out
