"""Brute-force numpy oracle over the full grid, and answer checks.

Every norm is computed once over the whole periodic domain by the stock
field kernel on a wrap-padded copy of the raw field -- the same
arithmetic the engine runs on halo-padded blocks, so engine values must
match bit for bit.  Answers are compared point for point after sorting
both sides by row-major grid index; nothing here uses the program's
Morton code, range planning, cache or wire.  It does share the field
kernels with the engine, as ``tests/test_property_pipeline.py`` does:
what it checks is everything around them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fields.derived import default_registry
from repro.simulation.datasets import SyntheticDataset

FD_ORDER = 4


@dataclass(frozen=True)
class Expected:
    """The oracle's answer to one threshold query."""

    index: np.ndarray  # sorted row-major grid indexes
    values: np.ndarray  # norms in the same order


class Oracle:
    """Norms of every derived field the workloads query, over the grid."""

    def __init__(self, dataset: SyntheticDataset, fields: tuple[str, ...]) -> None:
        self.side = dataset.spec.side
        registry = default_registry()
        self.norms: dict[str, np.ndarray] = {}
        for name in fields:
            derived = registry.get(name)
            raw = dataset.field_array(derived.source, 0)
            if raw.ndim == 3:
                raw = raw[..., None]
            halo = derived.halo(FD_ORDER)
            padded = np.pad(raw, [(halo, halo)] * 3 + [(0, 0)], mode="wrap")
            self.norms[name] = np.asarray(
                derived.norm(padded, dataset.spec.spacing, FD_ORDER),
                dtype=np.float64,
            )
        self._expected: dict[tuple, Expected] = {}

    def region(self, field: str, box: tuple[int, ...]) -> np.ndarray:
        """The norm over ``box`` = ``(xl, yl, zl, xu, yu, zu)``."""
        xl, yl, zl, xu, yu, zu = box
        return self.norms[field][xl:xu, yl:yu, zl:zu]

    def threshold_for_count(
        self, field: str, box: tuple[int, ...], count: int
    ) -> float:
        """A threshold that selects exactly the ``count`` largest norms.

        It lies halfway between the ``count``-th and ``count+1``-th
        largest value, so a last-bit difference in a norm cannot move a
        point across it.
        """
        ranked = np.sort(self.region(field, box), axis=None)[::-1]
        count = max(1, min(int(count), len(ranked) - 1))
        return float((ranked[count - 1] + ranked[count]) / 2.0)

    def expected(self, field: str, box: tuple[int, ...], threshold: float) -> Expected:
        key = (field, box, threshold)
        cached = self._expected.get(key)
        if cached is None:
            region = self.region(field, box)
            ix, iy, iz = np.nonzero(region >= threshold)
            values = region[ix, iy, iz]
            index = self._index(ix + box[0], iy + box[1], iz + box[2])
            order = np.argsort(index)
            cached = Expected(index[order], values[order])
            self._expected[key] = cached
        return cached

    def _index(self, x, y, z) -> np.ndarray:
        side = self.side
        return (
            np.asarray(x, np.int64) * side + np.asarray(y, np.int64)
        ) * side + np.asarray(z, np.int64)

    # -- checks ---------------------------------------------------------

    def points_arrays(self, points: list) -> tuple[np.ndarray, np.ndarray]:
        """``(row-major index, value)`` arrays of decoded answer points."""
        n = len(points)
        x = np.fromiter((p["x"] for p in points), np.int64, n)
        y = np.fromiter((p["y"] for p in points), np.int64, n)
        z = np.fromiter((p["z"] for p in points), np.int64, n)
        values = np.fromiter((p["value"] for p in points), np.float64, n)
        return self._index(x, y, z), values

    def check_threshold(
        self, field: str, box: tuple[int, ...], threshold: float, points: list
    ) -> str | None:
        """``None`` when ``points`` is exactly the oracle's answer, else why not."""
        want = self.expected(field, box, threshold)
        index, values = self.points_arrays(points)
        if len(index) != len(want.index):
            return f"{len(index)} points, oracle has {len(want.index)}"
        order = np.argsort(index)
        index, values = index[order], values[order]
        if not np.array_equal(index, want.index):
            return "point locations differ from the oracle"
        if not np.array_equal(values, want.values):
            worst = float(np.max(np.abs(values - want.values)))
            return f"point values differ from the oracle (max diff {worst:g})"
        return None

    def check_topk(self, field: str, k: int, points: list) -> str | None:
        """The answer holds the oracle's ``k`` largest norms, largest first."""
        norms = self.norms[field].ravel()
        top = np.argpartition(norms, -k)[-k:]
        want_index = np.sort(top)
        index, values = self.points_arrays(points)
        if len(index) != k:
            return f"{len(index)} top-k points, asked for {k}"
        if np.any(np.diff(values) > 0):
            return "top-k values are not in descending order"
        order = np.argsort(index)
        if not np.array_equal(index[order], want_index):
            return "top-k locations differ from the oracle"
        if not np.array_equal(values[order], norms[want_index]):
            return "top-k values differ from the oracle"
        return None

    def check_pdf(self, field: str, edges: list, counts: list) -> str | None:
        """Counts equal the oracle's histogram with an open-ended last bin."""
        want, _ = np.histogram(
            self.norms[field], bins=np.append(np.asarray(edges), np.inf)
        )
        if list(counts) != want.tolist():
            return f"pdf counts {list(counts)} differ from oracle {want.tolist()}"
        return None
