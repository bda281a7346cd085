"""Benchmark-side tracing: wrappers around the layers' public functions.

Each wrapper is installed at the attribute its caller resolves (a class
attribute for methods, the importing module's global for functions) and
records a span -- name, start, end, parent, node, request -- in memory.
The traced run keeps one request in flight, so every span belongs to
that request.  Parents come from the calling thread's open spans; a
span opened on a thread with none (a node's request thread, a halo
service thread, the bridge thread) is parented by rule to the open span
that caused it (see :meth:`Tracer._parent_for`).

A span's self time is its duration minus the union of its children's
intervals.  The two node parts of a query run concurrently, so layers
below them are reported as summed busy seconds, and the unattributed
share and the layer shares are taken along the slower part only.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

#: Which layer group each span name belongs to, for the shares.
GROUPS = {
    "engine": (
        "node.", "executor.", "grid.", "ingest.", "fields.", "storage.",
    ),
    "cache": ("cache.",),
    "wire": ("wire.",),
    "mediator": ("mediator.", "partition."),
    "edge": ("webservice.", "aio.", "client."),
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    request: object
    node: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the in-flight request; counts per request."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Id of the traced request in flight (``None``: record nothing).
        self.request: object = None
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[Span] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, node: int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._parent_for(name, node)
        if node is None and parent is not None:
            node = parent.node
        with self._lock:
            self._next += 1
            span = Span(
                self._next, name, time.perf_counter(),
                parent.sid if parent is not None else None,
                self.request, node,
            )
            self._open.append(span)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._open.remove(span)

    def start_request(self, request: object) -> None:
        """Open the root span of a traced client request."""
        self.request = request
        self.root = self.begin("request")

    def finish_request(self, reply) -> None:
        """Close the root span; the client's decode becomes its child."""
        root = self.root
        assert root is not None
        self.end(root)
        self.request = self.root = None
        if reply is not None:
            with self._lock:
                self._next += 1
                self.spans.append(
                    Span(
                        self._next, "client.decode", reply.received, root.sid,
                        root.request, None, end=reply.decoded,
                        attrs={"bytes": reply.response_bytes},
                    )
                )

    def _latest_open(self, predicate) -> Span | None:
        with self._lock:
            found = [span for span in self._open if predicate(span)]
        return max(found, key=lambda span: span.start) if found else None

    def _parent_for(self, name: str, node: int | None) -> Span | None:
        """The causing span of a span opened on a thread with none open."""
        if name.startswith(("wire.", "partition.")):
            found = self._latest_open(lambda s: s.name.startswith("mediator."))
        elif name.startswith("node."):
            found = self._latest_open(lambda s: s.name == "wire.part" and s.node == node)
        elif name.startswith("storage."):
            # A peer's halo service: caused by the requesting node's fetch.
            found = self._latest_open(
                lambda s: s.name == "executor.halo" and s.node != node
            )
        else:
            found = None
        return found if found is not None else self.root

    def wrap(self, name: str, fn, node_of=None, measure=None):
        """``fn`` recording a span while a request is traced.

        ``node_of(args)`` names the node a span runs on; ``measure(span,
        args, kwargs, result)`` stores counts in ``span.attrs``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            span = tracer.begin(name, node_of(args) if node_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def patch(self, owner, attribute: str, name: str, node_of=None, measure=None) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, node_of, measure))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer budget names."""
        from repro.cluster import node as node_module
        from repro.cluster.mediator import Mediator
        from repro.cluster.node import DatabaseNode
        from repro.cluster.partition import MortonPartitioner
        from repro.cluster.webservice import WebService
        from repro.core import cache as cache_module
        from repro.core import executor as executor_module
        from repro.net import aio, server
        from repro.net.transport import TcpTransport
        from repro.simulation.datasets import SyntheticDataset

        self.patch(WebService, "handle", "webservice.handle")
        for method in ("threshold", "pdf", "topk"):
            self.patch(Mediator, method, f"mediator.{method}")
        self.patch(MortonPartitioner, "query_boxes", "partition.query_boxes")
        for method in ("threshold_part", "pdf_part", "topk_part"):
            self.patch(
                TcpTransport, method, "wire.part",
                node_of=lambda args: args[1], measure=_raw_bytes,
            )
        node_of_db = lambda args: args[0].node_id  # noqa: E731
        for function, name in (
            ("get_threshold_on_node", "node.threshold"),
            ("get_pdf_on_node", "node.pdf"),
            ("get_topk_on_node", "node.topk"),
        ):
            self.patch(server, function, name, node_of=node_of_db)
        cache = cache_module.SemanticCache
        self.patch(cache, "lookup", "cache.lookup")
        self.patch(cache, "store", "cache.store", measure=_replacement)
        node_executor = executor_module.NodeExecutor
        self.patch(node_executor, "evaluate", "executor.evaluate")
        # Both the shared prefetch (``prefetch_halo``) and the per-chain
        # boundary fetch inside ``evaluate`` resolve this attribute.
        self.patch(node_executor, "_prefetch_halo", "executor.halo")
        self.patch(executor_module, "atom_ranges_covering", "grid.atom_ranges")
        self.patch(node_module, "atom_ranges_covering", "grid.atom_ranges")
        self.patch(executor_module, "array_from_atoms", "ingest.decode")
        self.patch(
            DatabaseNode, "read_atoms", "storage.read_atoms",
            node_of=node_of_db, measure=_atoms_read,
        )
        self.patch(SyntheticDataset, "field_array", "setup.synthesize")
        self.patch(server.NodeServer, "load", "setup.load")
        # The door encodes responses with ``json.dumps`` on its event
        # loop; the module global it resolves becomes a wrapping proxy.
        self._patches.append((aio, "json", aio.json))
        aio.json = types.SimpleNamespace(
            dumps=self.wrap("aio.encode", json.dumps),
            loads=self.wrap("aio.parse", json.loads),
            JSONDecodeError=json.JSONDecodeError,
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def kernel_registry(self):
        """A stock field registry whose kernels record ``fields.kernel``."""
        import dataclasses

        from repro.fields.derived import FieldRegistry, default_registry

        registry = FieldRegistry()
        stock = default_registry()
        for name in stock.names():
            derived = stock.get(name)
            registry.register(
                dataclasses.replace(
                    derived,
                    norm=self.wrap("fields.kernel", derived.norm, measure=_kernel),
                )
            )
        return registry

    def write(self, path) -> None:
        """Every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span.sid, "name": span.name,
                            "start": span.start, "end": span.end,
                            "parent": span.parent, "request": span.request,
                            "node": span.node, **span.attrs,
                        }
                    )
                    + "\n"
                )


def _raw_bytes(span: Span, args, kwargs, result) -> None:
    zindexes = getattr(result, "zindexes", None)
    if zindexes is not None:
        span.attrs["raw_bytes"] = 16 * len(zindexes)
    else:
        span.attrs["raw_bytes"] = 8 * len(getattr(result, "counts", ()))


def _replacement(span: Span, args, kwargs, result) -> None:
    span.attrs["replaced"] = int(kwargs.get("replace_ordinal") is not None)


def _atoms_read(span: Span, args, kwargs, result) -> None:
    span.attrs["atoms"] = len(result)
    span.attrs["bytes"] = sum(len(blob) for blob in result.values())


def _kernel(span: Span, args, kwargs, result) -> None:
    span.attrs["points"] = int(result.size)
    # Computed, not measured: the block read plus the norm written.
    span.attrs["bytes"] = int(args[0].nbytes + result.nbytes)


# -- analysis -------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = union_length(
            [
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.sid, ())
                if c.end > span.start and c.start < span.end
            ]
        )
        out[span.sid] = span.duration - covered
    return out


def critical_spans(spans: list[Span]) -> list[Span]:
    """The request's spans minus the faster node parts' subtrees."""
    parts: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "wire.part" and span.parent is not None:
            parts[span.parent].append(span)
    dropped: set[int] = set()
    for siblings in parts.values():
        slowest = max(siblings, key=lambda span: span.duration)
        dropped.update(span.sid for span in siblings if span is not slowest)
    by_id = {span.sid: span for span in spans}
    kept = []
    for span in spans:
        cursor: Span | None = span
        while cursor is not None and cursor.sid not in dropped:
            cursor = by_id.get(cursor.parent) if cursor.parent is not None else None
        if cursor is None:
            kept.append(span)
    return kept


def group_of(name: str) -> str | None:
    for group, prefixes in GROUPS.items():
        if name.startswith(prefixes):
            return group
    return None
