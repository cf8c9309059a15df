"""Shortest-path machinery: Dijkstra with per-source caching.

The paper's path-cost metric (§4.1) charges each application-level hop the
*shortest-path weight* between the two endpoints' attachment points, and
Figure 9's LDT edge cost is likewise "the minimal sum of path weights for
the network links assembling the edge".  Experiments therefore issue very
many point-to-point distance queries against a static topology — the right
shape is single-source Dijkstra, memoised per source, with a batched
multi-source fast path for the sweeps that know their source set up front.

``dijkstra_csr`` runs over the frozen CSR arrays of
:class:`~repro.net.graph.Graph` with a binary heap; profiling on the
Figure-7 workload showed the CSR inner loop ~3× faster than a dict-of-dicts
walk (contiguous array reads — see the cache-effects discussion in the
hpc-parallel guide).  :meth:`PathOracle.distances_many` amortises the
remaining per-call overhead by handing scipy the whole source list in one
``csgraph.dijkstra`` invocation, and :meth:`PathOracle.route_costs` turns a
pair list into one vectorised gather over the cached distance rows.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

try:  # scipy's compiled Dijkstra is ~100x the pure-Python one; optional.
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy present in the test env
    _HAVE_SCIPY = False

from .graph import Graph

__all__ = ["dijkstra_csr", "PathOracle", "reconstruct_path"]


def dijkstra_csr(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths on a frozen graph.

    Returns ``(dist, parent)`` arrays of length ``n``: ``dist[v]`` is the
    shortest-path weight from ``source`` to ``v`` (``inf`` if unreachable)
    and ``parent[v]`` the predecessor of ``v`` on one shortest path (``-1``
    for the source and unreachable vertices).
    """
    indptr, indices, weights = graph.csr()
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    # (distance, vertex) heap with lazy deletion.
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        lo, hi = indptr[u], indptr[u + 1]
        for k in range(lo, hi):
            v = int(indices[k])
            nd = d + float(weights[k])
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def reconstruct_path(parent: np.ndarray, source: int, target: int) -> List[int]:
    """Recover the vertex sequence source→target from a parent array.

    Returns an empty list when ``target`` is unreachable.
    """
    n = len(parent)
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range [0, {n})")
    if target == source:
        return [source]
    if parent[target] < 0:
        return []
    path = [target]
    v = target
    while v != source:
        v = int(parent[v])
        path.append(v)
        if len(path) > n:  # defensive: corrupt parent array
            raise RuntimeError("cycle detected while reconstructing path")
    path.reverse()
    return path


class PathOracle:
    """Memoised point-to-point shortest-path distances on a frozen graph.

    The oracle runs Dijkstra once per *distinct source* and caches the full
    distance vector; subsequent queries from that source are O(1) array
    reads.  With 2,000–10,000 stationary endpoints and 10,000 sampled routes
    this caps the number of Dijkstra runs at the number of distinct sources
    actually queried.

    Sweeps that know their source set up front should call :meth:`prewarm`
    (or :meth:`distances_many` directly): scipy then computes every missing
    row in a single compiled ``csgraph.dijkstra`` call instead of one call
    per source, and the per-query path reduces to cache reads.

    Cache behaviour is observable: ``cache_hits`` / ``cache_misses`` /
    ``cache_evictions`` count per-source row lookups, ``dijkstra_runs``
    counts computed rows and ``batch_calls`` the multi-source invocations;
    :meth:`cache_stats` snapshots all of them for metrics export.

    Parameters
    ----------
    graph:
        A frozen :class:`Graph`.
    max_cached_sources:
        Optional LRU bound on cached distance vectors (each costs
        ``8 * n`` bytes).  Rows are promoted on every hit and the
        least-recently-used row is evicted, so a bounded oracle stays
        within budget without thrashing on repeated-source sweeps.
        ``None`` means unbounded.
    """

    def __init__(
        self,
        graph: Graph,
        max_cached_sources: Optional[int] = None,
        use_scipy: bool = True,
    ) -> None:
        if not graph.frozen:
            graph.freeze()
        if max_cached_sources is not None and max_cached_sources < 1:
            raise ValueError("max_cached_sources must be >= 1 (or None)")
        self.graph = graph
        self.max_cached_sources = max_cached_sources
        self.use_scipy = use_scipy and _HAVE_SCIPY
        self._scipy_graph = None
        if self.use_scipy:
            indptr, indices, weights = graph.csr()
            n = graph.num_vertices
            self._scipy_graph = _csr_matrix(
                (weights, indices, indptr), shape=(n, n)
            )
        # LRU order: oldest-used first; promoted via move_to_end on hit.
        self._dist_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.dijkstra_runs = 0  # single-source rows computed
        self.batch_calls = 0  # multi-source scipy invocations
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def _run_single_source(self, source: int) -> np.ndarray:
        if self.use_scipy:
            dist: np.ndarray = _scipy_dijkstra(
                self._scipy_graph, directed=False, indices=source
            )
            return dist
        return dijkstra_csr(self.graph, source)[0]

    def _store(self, source: int, dist: np.ndarray) -> None:
        """Insert one computed row, evicting the LRU row at the bound."""
        if (
            self.max_cached_sources is not None
            and source not in self._dist_cache
            and len(self._dist_cache) >= self.max_cached_sources
        ):
            self._dist_cache.popitem(last=False)
            self.cache_evictions += 1
        self._dist_cache[source] = dist
        self._dist_cache.move_to_end(source)

    def _ensure(self, source: int) -> np.ndarray:
        dist = self._dist_cache.get(source)
        if dist is not None:
            self.cache_hits += 1
            self._dist_cache.move_to_end(source)  # LRU promotion
            return dist
        self.cache_misses += 1
        dist = self._run_single_source(source)
        self.dijkstra_runs += 1
        self._store(source, dist)
        return dist

    def distances_many(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as one ``(len(sources), n)`` array.

        Every source missing from the cache is computed in a *single*
        multi-source ``scipy.sparse.csgraph.dijkstra`` call (falling back to
        a loop over :func:`dijkstra_csr` without scipy); already-cached rows
        are reused and promoted.  Duplicate sources are computed once.  The
        returned rows follow the input order and are valid even when a
        bounded cache cannot retain them all.
        """
        order = [int(s) for s in sources]
        if not order:
            return np.empty((0, self.graph.num_vertices), dtype=np.float64)
        rows: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for s in dict.fromkeys(order):  # distinct, input order
            cached = self._dist_cache.get(s)
            if cached is not None:
                self.cache_hits += 1
                self._dist_cache.move_to_end(s)
                rows[s] = cached
            else:
                self.cache_misses += 1
                missing.append(s)
        if missing:
            if self.use_scipy and len(missing) > 1:
                dist = _scipy_dijkstra(
                    self._scipy_graph, directed=False, indices=missing
                )
                self.batch_calls += 1
                for i, s in enumerate(missing):
                    rows[s] = dist[i]
                    self._store(s, dist[i])
            else:
                for s in missing:
                    rows[s] = self._run_single_source(s)
                    self._store(s, rows[s])
            self.dijkstra_runs += len(missing)
        return np.stack([rows[s] for s in order])

    def prewarm(self, sources: Iterable[int]) -> int:
        """Batch-compute distance rows for ``sources`` ahead of a sweep.

        Returns the number of rows that actually had to be computed.
        Pre-warming with the exact source set a sweep will touch turns its
        per-query :meth:`distance` calls into pure cache reads.
        """
        before = self.dijkstra_runs
        self.distances_many(list(dict.fromkeys(int(s) for s in sources)))
        return self.dijkstra_runs - before

    def route_costs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Shortest-path weight for every ``(u, v)`` pair, vectorised.

        Missing source rows are computed with one multi-source call (via
        :meth:`distances_many`); costs are then gathered per source group
        with NumPy fancy indexing instead of one Python call per pair —
        the fast path for the Fig-7/Fig-9 cost sweeps.  Distances are
        symmetric (undirected underlay), so each pair charges whichever
        endpoint is already cached where possible.
        """
        if len(pairs) == 0:
            return np.empty(0, dtype=np.float64)
        us = np.asarray([p[0] for p in pairs], dtype=np.int64)
        vs = np.asarray([p[1] for p in pairs], dtype=np.int64)
        # Prefer already-cached sources pairwise (symmetry), mirroring
        # the swap in :meth:`distance`.
        swap = np.asarray(
            [
                v in self._dist_cache and u not in self._dist_cache
                for u, v in zip(us.tolist(), vs.tolist())
            ],
            dtype=bool,
        )
        us2 = np.where(swap, vs, us)
        vs2 = np.where(swap, us, vs)
        out = np.empty(len(pairs), dtype=np.float64)
        distinct = list(dict.fromkeys(us2.tolist()))
        rows = self.distances_many(distinct)
        row_of = {s: rows[i] for i, s in enumerate(distinct)}
        for s in distinct:
            mask = us2 == s
            out[mask] = row_of[s][vs2[mask]]
        return out

    def distance(self, u: int, v: int) -> float:
        """Shortest-path weight between ``u`` and ``v`` (inf if disconnected)."""
        if u == v:
            return 0.0
        # Prefer a source that is already cached; distances are symmetric
        # in an undirected graph.
        if v in self._dist_cache and u not in self._dist_cache:
            u, v = v, u
        return float(self._ensure(u)[v])

    def distances_from(self, source: int) -> np.ndarray:
        """Full distance vector from ``source`` (cached)."""
        return self._ensure(source)

    @property
    def cached_sources(self) -> int:
        return len(self._dist_cache)

    def cache_stats(self) -> Dict[str, float]:
        """Snapshot of the cache counters for metrics export.

        ``hit_rate`` is hits / (hits + misses), NaN before any lookup.
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "dijkstra_runs": self.dijkstra_runs,
            "batch_calls": self.batch_calls,
            "cached_sources": len(self._dist_cache),
            "hit_rate": self.cache_hits / lookups if lookups else float("nan"),
        }

    def reset_stats(self) -> None:
        """Zero the counters (the cached rows are kept)."""
        self.dijkstra_runs = 0
        self.batch_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
