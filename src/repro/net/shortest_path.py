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

Given the :class:`~repro.net.transit_stub.TransitStubTopology` the graph
came from, the oracle builds rows from the hierarchy instead of running
Dijkstra on the whole graph.  Every stub domain hangs off the transit core
by exactly one gateway edge, so for a source ``s`` and a target ``v`` in
another stub

    d(s, v) = local[s→gw(s)] + w_gw(s) + D_core[t(s), t(v)]
              + w_gw(v) + local[gw(v)→v]

while targets in ``s``'s own stub take the stub-local distance.  The sums
are re-associated relative to Dijkstra's path-order sums, so cross-stub
entries may differ from whole-graph Dijkstra by a few ulp (bound:
:data:`HIERARCHY_RTOL`); same-stub entries and rows from transit sources
to transit targets are bit-identical.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

try:  # scipy's compiled Dijkstra is ~100x the pure-Python one; optional.
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy present in the test env
    _HAVE_SCIPY = False

from .. import sanitize as _sanitize
from .graph import Graph

if TYPE_CHECKING:  # pragma: no cover - types only
    from .transit_stub import TransitStubTopology

__all__ = ["dijkstra_csr", "PathOracle", "reconstruct_path", "HIERARCHY_RTOL"]

#: Relative bound between a hierarchical row entry and whole-graph
#: Dijkstra.  Measured on 2.6k-, 5k- and 10k-router underlays: at most
#: 3 ulp (6.5e-16 relative).
HIERARCHY_RTOL = 2e-15


def dijkstra_csr(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths on a frozen graph.

    Returns ``(dist, parent)`` arrays of length ``n``: ``dist[v]`` is the
    shortest-path weight from ``source`` to ``v`` (``inf`` if unreachable)
    and ``parent[v]`` the predecessor of ``v`` on one shortest path (``-1``
    for the source and unreachable vertices).
    """
    return _dijkstra_arrays(*graph.csr(), source)


def _dijkstra_arrays(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, source: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`dijkstra_csr` over raw CSR arrays."""
    n = len(indptr) - 1
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


def _csr_graph(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
    n = len(indptr) - 1
    return _csr_matrix((weights, indices, indptr), shape=(n, n))


class _StubSplit:
    """Exact row builder for a single-gateway transit-stub topology.

    Construction validates the shape, vectorised over the CSR arrays, and
    raises ``ValueError`` when a router is neither transit nor in exactly
    one stub, or a stub domain is left by anything but its one recorded
    gateway edge.  The first :meth:`rows` call builds the tables once: one
    CSR block per domain (the transit core and each stub, gateway edges
    cut), an APSP of the core, and one gateway-rooted row per stub.
    """

    def __init__(
        self, graph: Graph, topology: "TransitStubTopology", use_scipy: bool
    ) -> None:
        n = graph.num_vertices
        indptr, indices, weights = graph.csr()
        self.graph = graph
        self.use_scipy = use_scipy
        self.transit = np.asarray(sorted(topology.transit_routers), dtype=np.int64)
        domain_ids = sorted(topology.domains)
        self.members = [
            np.asarray(sorted(topology.domains[d]), dtype=np.int64)
            for d in domain_ids
        ]
        # -1 marks a transit router, i >= 0 the i-th stub, -2 neither.
        label = np.full(n, -2, dtype=np.int64)
        label[self.transit] = -1
        for i, members in enumerate(self.members):
            if (label[members] != -2).any():
                raise ValueError(f"stub domain {domain_ids[i]} overlaps another domain")
            label[members] = i
        if (label == -2).any():
            raise ValueError(
                f"router {int(np.argmax(label == -2))} is neither transit nor stub"
            )
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        exits = np.flatnonzero((label[src] != label[indices]) & (label[src] >= 0))
        count = np.bincount(label[src[exits]], minlength=len(self.members))
        bad = np.flatnonzero(count != 1)
        if bad.size:
            raise ValueError(
                f"stub domain {domain_ids[bad[0]]} has {count[bad[0]]} exit edges;"
                " the hierarchical oracle needs exactly one gateway edge per stub"
            )
        exits = exits[np.argsort(label[src[exits]], kind="stable")]
        for i, edge in enumerate(
            zip(src[exits].tolist(), indices[exits].tolist(), weights[exits].tolist())
        ):
            recorded = topology.gateways.get(domain_ids[i])
            if recorded != edge or label[edge[1]] != -1:
                raise ValueError(
                    f"stub domain {domain_ids[i]}: exit edge {edge} is not the"
                    f" recorded gateway edge {recorded} to a transit router"
                )
        self.label = label
        self.gw = src[exits]
        self.gw_transit = indices[exits]
        self.gw_weight = weights[exits]
        self._ready = False

    def _prepare(self) -> None:
        """Build the domain blocks, the core APSP and the gateway rows."""
        indptr, indices, weights = self.graph.csr()
        n = len(indptr) - 1
        stubs = len(self.members)
        # Position of every router inside its own domain's sorted members.
        order = np.lexsort((np.arange(n), self.label))
        first = np.searchsorted(self.label[order], np.arange(-1, stubs))
        self.local_of = np.empty(n, dtype=np.int64)
        self.local_of[order] = np.arange(n) - first[self.label[order] + 1]
        # Intra-domain edges grouped by domain (core first), rows ascending.
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        edges = np.flatnonzero(self.label[src] == self.label[indices])
        edges = edges[np.argsort(self.label[src[edges]], kind="stable")]
        cuts = np.searchsorted(self.label[src[edges]], np.arange(-1, stubs + 1))
        self._blocks = []
        for d, members in enumerate([self.transit] + self.members):
            part = edges[cuts[d] : cuts[d + 1]]
            sub_indptr = np.zeros(len(members) + 1, dtype=np.int32)
            counts = np.bincount(self.local_of[src[part]], minlength=len(members))
            np.cumsum(counts, out=sub_indptr[1:])
            block = (sub_indptr, self.local_of[indices[part]].astype(np.int32),
                     weights[part])
            self._blocks.append(_csr_graph(*block) if self.use_scipy else block)
        core = len(self.transit)
        self.d_core = self._local(-1, np.arange(core))
        self.stub_core = self.local_of[self.gw_transit]
        self.gw_local = self.local_of[self.gw]
        # A target's column in the per-source hub table, and the tail added
        # to it: stub router -> (its stub, local[gw -> v]); transit router
        # -> (stubs + its core position, 0.0).
        self.col_of = np.where(self.label >= 0, self.label, stubs + self.local_of)
        self.tail = np.zeros(n, dtype=np.float64)
        for i, members in enumerate(self.members):
            self.tail[members] = self._local(i, self.gw_local[i : i + 1])[0]
        self._ready = True

    def _local(self, domain: int, sources: np.ndarray) -> np.ndarray:
        """Dijkstra rows inside one domain block (``-1`` is the core),
        from and to positions within the domain's sorted members.

        Each block holds both directions of every edge, so ``directed=True``
        yields the same distances as ``directed=False`` without scipy
        transposing the block on every call."""
        block = self._blocks[domain + 1]
        if self.use_scipy:
            return _scipy_dijkstra(block, directed=True, indices=sources)
        return np.stack([_dijkstra_arrays(*block, int(s))[0] for s in sources])

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as one ``(k, n)`` array.

        One vectorised pass over the batch fills every entry from the
        decomposition; then each source's own stub is overwritten with its
        stub-local row (one Dijkstra call per stub on its block).
        """
        if not self._ready:
            self._prepare()
        src = np.asarray(sources, dtype=np.int64)
        label = self.label[src]
        head = np.zeros(len(src), dtype=np.float64)  # d(s, core entry)
        core = self.local_of[src]  # transit sources: their core position
        own: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for i in np.unique(label[label >= 0]).tolist():
            at = np.flatnonzero(label == i)
            local = self._local(i, self.local_of[src[at]])
            head[at] = local[:, self.gw_local[i]] + self.gw_weight[i]
            core[at] = self.stub_core[i]
            own.append((at, self.members[i], local))
        d_core = self.d_core[core]
        stubs = len(self.members)
        hub = np.empty((len(src), stubs + len(self.transit)), dtype=np.float64)
        np.add(head[:, None], d_core[:, self.stub_core], out=hub[:, :stubs])
        np.add(hub[:, :stubs], self.gw_weight, out=hub[:, :stubs])
        np.add(head[:, None], d_core, out=hub[:, stubs:])
        out = np.take(hub, self.col_of, axis=1)
        np.add(out, self.tail, out=out)
        for at, members, local in own:
            out[np.ix_(at, members)] = local
        return out


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

    Given ``topology``, missing rows come from the transit-stub hierarchy
    (see the module docstring) instead of whole-graph Dijkstra; only the
    computation changes, never the cache or its counters.

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
    topology:
        The transit-stub topology ``graph`` belongs to, to build rows from
        its hierarchy.  ``ValueError`` if it is not single-gateway.
    """

    def __init__(
        self,
        graph: Graph,
        max_cached_sources: Optional[int] = None,
        use_scipy: bool = True,
        topology: Optional["TransitStubTopology"] = None,
    ) -> None:
        if not graph.frozen:
            graph.freeze()
        if max_cached_sources is not None and max_cached_sources < 1:
            raise ValueError("max_cached_sources must be >= 1 (or None)")
        self.graph = graph
        self.max_cached_sources = max_cached_sources
        self.use_scipy = use_scipy and _HAVE_SCIPY
        self._scipy_graph = None  # whole-graph scipy matrix, built on first use
        self._split = None
        if topology is not None:
            if topology.graph is not graph:
                raise ValueError("topology describes a different graph")
            self._split = _StubSplit(graph, topology, self.use_scipy)
        # LRU order: oldest-used first; promoted via move_to_end on hit.
        self._dist_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.dijkstra_runs = 0  # rows computed (Dijkstra or hierarchical)
        self.batch_calls = 0  # multi-row computations (scipy backend)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def _dijkstra_rows(self, sources: List[int]) -> np.ndarray:
        """Whole-graph Dijkstra rows; touches no cache or counter."""
        if self.use_scipy:
            if self._scipy_graph is None:
                self._scipy_graph = _csr_graph(*self.graph.csr())
            dist: np.ndarray = _scipy_dijkstra(
                self._scipy_graph, directed=False, indices=sources
            )
            return dist
        return np.stack([dijkstra_csr(self.graph, s)[0] for s in sources])

    def _compute_rows(self, sources: List[int]) -> np.ndarray:
        """Rows for cache-missing ``sources``, hierarchical when possible."""
        if self._split is None:
            return self._dijkstra_rows(sources)
        rows = self._split.rows(sources)
        if _sanitize.ACTIVE:
            _sanitize.check_oracle_rows(self, sources[0], rows[0])
        return rows

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
        dist = self._compute_rows([source])[0]
        self.dijkstra_runs += 1
        self._store(source, dist)
        return dist

    def _rows(self, distinct: Iterable[int]) -> Dict[int, np.ndarray]:
        """Row per distinct source: cached rows are reused and promoted,
        every missing one comes from one :meth:`_compute_rows` call."""
        rows: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for s in distinct:
            cached = self._dist_cache.get(s)
            if cached is not None:
                self.cache_hits += 1
                self._dist_cache.move_to_end(s)
                rows[s] = cached
            else:
                self.cache_misses += 1
                missing.append(s)
        if missing:
            dist = self._compute_rows(missing)
            if self.use_scipy and len(missing) > 1:
                self.batch_calls += 1
            for i, s in enumerate(missing):
                rows[s] = dist[i]
                self._store(s, dist[i])
            self.dijkstra_runs += len(missing)
        return rows

    def distances_many(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as one ``(len(sources), n)`` array.

        Every source missing from the cache is computed in a *single*
        multi-source ``scipy.sparse.csgraph.dijkstra`` call (falling back to
        a loop over :func:`dijkstra_csr` without scipy) or one hierarchical
        assembly pass; already-cached rows are reused and promoted.
        Duplicate sources are computed once.  The returned rows follow the
        input order and are valid even when a bounded cache cannot retain
        them all.
        """
        order = [int(s) for s in sources]
        if not order:
            return np.empty((0, self.graph.num_vertices), dtype=np.float64)
        rows = self._rows(dict.fromkeys(order))  # distinct, input order
        return np.stack([rows[s] for s in order])

    def prewarm(self, sources: Iterable[int]) -> int:
        """Batch-compute distance rows for ``sources`` ahead of a sweep.

        Returns the number of rows that actually had to be computed.
        Pre-warming with the exact source set a sweep will touch turns its
        per-query :meth:`distance` calls into pure cache reads.  Unlike
        :meth:`distances_many` it stacks no ``(k, n)`` copy of the rows.
        """
        before = self.dijkstra_runs
        self._rows(dict.fromkeys(int(s) for s in sources))
        return self.dijkstra_runs - before

    def route_costs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Shortest-path weight for every ``(u, v)`` pair, vectorised.

        Missing source rows are computed with one multi-source call, as in
        :meth:`distances_many`; costs are then gathered per source group
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
        row_of = self._rows(dict.fromkeys(us2.tolist()))
        for s in row_of:
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
