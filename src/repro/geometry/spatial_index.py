"""Uniform-grid spatial hash for neighbour queries.

The network substrate needs "all nodes within radius r of position p" both at
topology-construction time (neighbour tables for the unit-disk graph) and for
stimulus coverage queries on grids of probe points.  A uniform-cell spatial
hash with cell size equal to the query radius gives O(1) expected query cost
for the node densities used in the paper's evaluation and is trivial to verify
against brute force (see the property tests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np


class GridIndex:
    """Static spatial hash over a fixed set of 2-D points.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of positions.
    cell_size:
        Edge length of the square hash cells.  Choose the typical query radius
        for best performance; correctness does not depend on it.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {points.shape}")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._points = points
        self._cell = float(cell_size)
        self._buckets: Dict[Tuple[int, int], List[int]] = {}
        for idx, (x, y) in enumerate(points):
            self._buckets.setdefault(self._key(x, y), []).append(idx)

    # ------------------------------------------------------------------ info
    @property
    def points(self) -> np.ndarray:
        """The indexed positions (read-only view semantics by convention)."""
        return self._points

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return int(self._points.shape[0])

    @property
    def cell_size(self) -> float:
        """Hash cell edge length."""
        return self._cell

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self._cell)), int(math.floor(y / self._cell)))

    # --------------------------------------------------------------- queries
    def query_radius(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Indices of points within Euclidean ``radius`` of ``center`` (inclusive).

        Results are sorted ascending so callers get deterministic neighbour
        ordering regardless of hash-bucket iteration order.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        cx, cy = float(center[0]), float(center[1])
        reach = int(math.ceil(radius / self._cell))
        kx, ky = self._key(cx, cy)
        candidates: List[int] = []
        for ix in range(kx - reach, kx + reach + 1):
            for iy in range(ky - reach, ky + reach + 1):
                bucket = self._buckets.get((ix, iy))
                if bucket:
                    candidates.extend(bucket)
        if not candidates:
            return np.empty(0, dtype=int)
        cand = np.array(sorted(candidates), dtype=int)
        d2 = np.sum((self._points[cand] - np.array([cx, cy])) ** 2, axis=1)
        return cand[d2 <= radius * radius + 1e-12]

    def query_pairs(self, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All unordered index pairs within ``radius``, as two int arrays.

        Returns ``(first, second)`` with ``first[k] < second[k]`` for every
        pair ``k``.

        Single sweep over the hash cells: every unordered *bucket* pair in
        reach is visited exactly once (half-neighbourhood offsets), and the
        candidate distances inside each bucket pair are tested with one
        vectorised NumPy expression.  This replaces the previous
        one-``query_radius``-per-point construction (N hash probes, N Python
        loops) with work proportional to the number of occupied cell pairs.
        Pairs are sorted ``(i, j)`` ascending.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        r2 = radius * radius + 1e-12
        reach = int(math.ceil(radius / self._cell))
        # Offsets covering each unordered bucket pair once: strictly-right
        # columns, plus strictly-above cells in the same column.
        offsets = [
            (dx, dy)
            for dx in range(0, reach + 1)
            for dy in range(-reach, reach + 1)
            if dx > 0 or (dx == 0 and dy > 0)
        ]
        pts = self._points
        out_i: List[np.ndarray] = []
        out_j: List[np.ndarray] = []
        for (kx, ky), bucket in self._buckets.items():
            a = np.asarray(bucket, dtype=int)
            pa = pts[a]
            if len(a) > 1:
                ii, jj = np.triu_indices(len(a), k=1)
                keep = np.sum((pa[ii] - pa[jj]) ** 2, axis=1) <= r2
                if keep.any():
                    out_i.append(a[ii[keep]])
                    out_j.append(a[jj[keep]])
            for dx, dy in offsets:
                other = self._buckets.get((kx + dx, ky + dy))
                if not other:
                    continue
                b = np.asarray(other, dtype=int)
                pb = pts[b]
                d2 = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
                ii, jj = np.nonzero(d2 <= r2)
                if ii.size:
                    out_i.append(a[ii])
                    out_j.append(b[jj])
        if not out_i:
            return np.empty(0, dtype=int), np.empty(0, dtype=int)
        first = np.concatenate(out_i)
        second = np.concatenate(out_j)
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        order = np.lexsort((hi, lo))
        return lo[order], hi[order]

    def nearest(self, center: Sequence[float]) -> int:
        """Index of the point nearest to ``center`` (brute force fallback).

        The grid buckets cannot bound the nearest neighbour without a growing
        ring search, so for this rarely used helper a vectorised brute force
        over all points is simpler and fast enough.
        """
        if self.size == 0:
            raise ValueError("nearest() on an empty index")
        c = np.array([float(center[0]), float(center[1])])
        d2 = np.sum((self._points - c) ** 2, axis=1)
        return int(np.argmin(d2))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridIndex(n={self.size}, cell={self._cell})"
