"""Unit-disk network topology and neighbour tables.

The paper's evaluation uses 30 nodes with a 10 m transmission range; two
nodes can talk iff their distance is at most the range (the classic unit-disk
model).  ``Topology`` builds a CSR neighbour table once from positions using
the spatial hash and exposes connectivity queries used by the schedulers and
the analysis code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.spatial_index import GridIndex


class Topology:
    """Static unit-disk communication graph.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node positions (row index = node id).
    transmission_range:
        Maximum distance (metres) at which two nodes can communicate.
    """

    def __init__(self, positions: np.ndarray, transmission_range: float) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
        if transmission_range <= 0:
            raise ValueError("transmission_range must be positive")
        self.positions = positions
        self.transmission_range = float(transmission_range)
        self._index = GridIndex(positions, cell_size=transmission_range)
        # One pair sweep yields the edge list and the per-link distances; the
        # CSR neighbour table is built from them with NumPy.  The per-node
        # tuple and per-link dict views the scalar paths query are built on
        # first use (see :meth:`_neighbour_tuples`, :meth:`_link_distances`).
        lo, hi = self._index.query_pairs(transmission_range)
        deltas = positions[lo] - positions[hi]
        # Elementwise np.hypot over the i < j deltas: the same ufunc
        # :meth:`distance` applies, so link distances are bit-equal to it.
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        self._pairs = (lo, hi, dists)
        # Directed edge list (both orientations), sorted by (source, target):
        # row i of the CSR holds i's neighbours ascending by id.
        src = np.concatenate((lo, hi))
        dst = np.concatenate((hi, lo))
        order = np.lexsort((dst, src))
        indptr = np.zeros(len(positions) + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=len(positions)), out=indptr[1:])
        self._csr: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
            indptr,
            dst[order].astype(np.int64, copy=False),
            np.concatenate((dists, dists))[order],
        )
        self._neighbours: Optional[Dict[int, Tuple[int, ...]]] = None
        self._link_distance: Optional[Dict[Tuple[int, int], float]] = None

    # ------------------------------------------------------------------ info
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the topology."""
        return int(self.positions.shape[0])

    def neighbours(self, node_id: int) -> Tuple[int, ...]:
        """Node ids within transmission range of ``node_id`` (sorted, excludes self)."""
        self._check_id(node_id)
        return self._neighbour_tuples()[node_id]

    def degree(self, node_id: int) -> int:
        """Number of neighbours of ``node_id``."""
        return len(self.neighbours(node_id))

    def average_degree(self) -> float:
        """Mean neighbour count over all nodes (0 for an empty topology)."""
        if self.num_nodes == 0:
            return 0.0
        return 2 * len(self._pairs[0]) / self.num_nodes

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between nodes ``a`` and ``b``."""
        self._check_id(a)
        self._check_id(b)
        return float(np.hypot(*(self.positions[a] - self.positions[b])))

    def link_distance(self, a: int, b: int) -> float:
        """Distance between two *connected* nodes, from the cached link table.

        O(1) dict lookup for communication links (the broadcast hot path);
        falls back to :meth:`distance` for pairs that are not links.
        """
        key = (a, b) if a < b else (b, a)
        cached = self._link_distances().get(key)
        if cached is not None:
            return cached
        return self.distance(a, b)

    def are_connected(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are within transmission range (and distinct)."""
        return b in self._neighbour_tuples().get(a, ()) if a != b else False

    def neighbour_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style neighbour arrays ``(indptr, neighbour_ids, distances)``.

        Node ``i``'s neighbours, ascending by id, are
        ``neighbour_ids[indptr[i]:indptr[i + 1]]`` with the matching cached
        link distances (bit-equal to :meth:`link_distance`) alongside.  This
        is the batched message bus's fan-out table: one slice per broadcast
        instead of a per-neighbour Python loop.  Built once at construction;
        the topology is immutable.
        """
        return self._csr

    def edges(self) -> List[Tuple[int, int]]:
        """All unordered communication links ``(i, j)`` with ``i < j``.

        Derived from the same pair sweep that built the neighbour table;
        a fresh list on every call, so callers cannot mutate the topology.
        """
        lo, hi, _ = self._pairs
        return list(zip(lo.tolist(), hi.tolist()))

    # ---------------------------------------------------------- connectivity
    def connected_components(self) -> List[Set[int]]:
        """Connected components of the communication graph (BFS)."""
        neighbours = self._neighbour_tuples()
        unvisited = set(range(self.num_nodes))
        components: List[Set[int]] = []
        while unvisited:
            start = next(iter(unvisited))
            frontier = [start]
            component = {start}
            unvisited.discard(start)
            while frontier:
                current = frontier.pop()
                for neighbour in neighbours[current]:
                    if neighbour in unvisited:
                        unvisited.discard(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True when every node can reach every other node over multi-hop links."""
        if self.num_nodes <= 1:
            return True
        return len(self.connected_components()) == 1

    def nodes_within(self, point: Sequence[float], radius: float) -> np.ndarray:
        """Node ids within ``radius`` of an arbitrary ``point``."""
        return self._index.query_radius(point, radius)

    # -------------------------------------------------------------- internal
    def _neighbour_tuples(self) -> Dict[int, Tuple[int, ...]]:
        """``node_id -> sorted neighbour ids``, built from the CSR on first use."""
        if self._neighbours is None:
            indptr, neighbour_ids, _ = self._csr
            bounds = indptr.tolist()
            ids = neighbour_ids.tolist()
            self._neighbours = {
                node_id: tuple(ids[bounds[node_id] : bounds[node_id + 1]])
                for node_id in range(self.num_nodes)
            }
        return self._neighbours

    def _link_distances(self) -> Dict[Tuple[int, int], float]:
        """``(i, j) -> distance`` for every link ``i < j``, built on first use."""
        if self._link_distance is None:
            lo, hi, dists = self._pairs
            self._link_distance = {
                (i, j): d for i, j, d in zip(lo.tolist(), hi.tolist(), dists.tolist())
            }
        return self._link_distance

    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise KeyError(f"node id {node_id} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(n={self.num_nodes}, range={self.transmission_range}, "
            f"avg_degree={self.average_degree():.2f})"
        )
