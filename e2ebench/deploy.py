"""The deployment under test: the whole stack in one process.

Two in-thread :class:`~repro.net.server.NodeServer` instances over
loopback TCP, a :class:`~repro.net.transport.TcpTransport` mediator, and
:class:`~repro.cluster.webservice.WebService` behind
:class:`~repro.net.aio.AsyncHttpFrontend` with its
:class:`~repro.cluster.admission.AdmissionController` -- the layout
``benchmarks/bench_net.py`` and ``benchmarks/bench_slo.py`` use.
"""

from __future__ import annotations

import time

from repro.cluster.admission import AdmissionController
from repro.cluster.mediator import Mediator
from repro.cluster.partition import MortonPartitioner
from repro.cluster.webservice import WebService
from repro.fields.derived import FieldRegistry
from repro.net.aio import AsyncHttpFrontend
from repro.net.server import ClusterConfig, NodeServer
from repro.net.transport import TcpTransport

DATASET = "mhd"
SIDE = 64
TIMESTEPS = 1
#: Dataset seed.  Fixed, so every workload seed queries the same field;
#: the workload seed varies the boxes, thresholds and request order.
DATASET_SEED = 11
NODES = 2
#: Bridge slots of the door.  One slot behind two client connections is
#: what gives the door's priority queue and admission wait real work in
#: the open-loop workload; closed loops with one client never queue.
MAX_INFLIGHT = 1


class Deployment:
    """Start the cluster, ingest the dataset, open the HTTP door.

    ``cache_capacity_bytes`` is the per-node semantic-cache budget
    (``None`` disables the cache, the paper's "no cache" column).
    ``registry_factory`` builds each node's field registry (the traced
    run passes one whose kernels are wrapped).  Construction time is :attr:`setup_seconds`.
    """

    def __init__(
        self,
        cache_capacity_bytes: int | None,
        registry_factory=None,
    ) -> None:
        self.config = ClusterConfig(
            dataset=DATASET,
            side=SIDE,
            timesteps=TIMESTEPS,
            seed=DATASET_SEED,
            nodes=NODES,
            cache_capacity_bytes=cache_capacity_bytes,
        )
        self.servers: list[NodeServer] = []
        self.mediator: Mediator | None = None
        self.door: AsyncHttpFrontend | None = None
        started = time.perf_counter()
        try:
            self._start(registry_factory)
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _start(self, registry_factory) -> None:
        for node_id in range(NODES):
            registry: FieldRegistry | None = (
                registry_factory() if registry_factory else None
            )
            self.servers.append(
                NodeServer(node_id, self.config, registry=registry)
            )
        addresses = [f"127.0.0.1:{server.port}" for server in self.servers]
        for server in self.servers:
            server.connect_peers(addresses)
        for server in self.servers:
            server.load()
        for server in self.servers:
            server.start()
        self.mediator = Mediator(
            nodes=[],
            partitioner=MortonPartitioner(SIDE, NODES),
            transport=TcpTransport(addresses, timeout=120.0),
            scatter_timeout=240.0,
        )
        service = WebService(self.mediator)
        admission = AdmissionController(
            service.metrics, workers=MAX_INFLIGHT
        )
        self.door = AsyncHttpFrontend(
            service, admission=admission, max_inflight=MAX_INFLIGHT
        )
        self.door.start()

    @property
    def port(self) -> int:
        assert self.door is not None
        return self.door.port

    def storage_stats(self) -> dict[str, float]:
        """Engine counters summed over the nodes."""
        total: dict[str, float] = {}
        for server in self.servers:
            for key, value in server.node.db.storage_stats().items():
                total[key] = total.get(key, 0.0) + value
        return total

    def cache_stats(self) -> dict[str, int]:
        """Semantic-cache counters summed over the nodes (empty: no cache)."""
        total: dict[str, int] = {}
        for server in self.servers:
            if server.cache is None:
                continue
            for key, value in server.cache.stats.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total

    def close(self) -> None:
        """Stop the door, the mediator and every node (idempotent)."""
        if self.door is not None:
            self.door.shutdown()
            self.door = None
        if self.mediator is not None:
            self.mediator.close()
            self.mediator = None
        for server in self.servers:
            server.shutdown()
        self.servers = []
