"""Tests for repro.net.shortest_path — Dijkstra, PathOracle, and
cross-validation against networkx."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.net import Graph, PathOracle, dijkstra_csr, reconstruct_path
from repro.net.shortest_path import HIERARCHY_RTOL
from repro.net.transit_stub import TransitStubParams, generate_transit_stub
from repro.sim import RngStreams


def line_graph(n: int) -> Graph:
    g = Graph()
    g.add_vertices(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, float(i + 1))
    g.freeze()
    return g


class TestDijkstra:
    def test_line_distances(self):
        g = line_graph(5)
        dist, parent = dijkstra_csr(g, 0)
        assert list(dist) == [0.0, 1.0, 3.0, 6.0, 10.0]
        assert parent[0] == -1
        assert parent[4] == 3

    def test_unreachable_is_inf(self):
        g = Graph()
        g.add_vertices(3)
        g.add_edge(0, 1, 1.0)
        g.freeze()
        dist, parent = dijkstra_csr(g, 0)
        assert dist[2] == np.inf
        assert parent[2] == -1

    def test_source_out_of_range(self):
        g = line_graph(3)
        with pytest.raises(IndexError):
            dijkstra_csr(g, 5)

    def test_prefers_cheaper_multi_hop(self):
        g = Graph()
        g.add_vertices(3)
        g.add_edge(0, 2, 10.0)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.freeze()
        dist, parent = dijkstra_csr(g, 0)
        assert dist[2] == 2.0
        assert parent[2] == 1


class TestReconstructPath:
    def test_path(self):
        g = line_graph(4)
        _, parent = dijkstra_csr(g, 0)
        assert reconstruct_path(parent, 0, 3) == [0, 1, 2, 3]

    def test_trivial(self):
        g = line_graph(2)
        _, parent = dijkstra_csr(g, 0)
        assert reconstruct_path(parent, 0, 0) == [0]

    def test_unreachable_empty(self):
        g = Graph()
        g.add_vertices(2)
        g.add_edge(0, 1, 1.0)
        g.add_vertex()
        g.freeze()
        _, parent = dijkstra_csr(g, 0)
        assert reconstruct_path(parent, 0, 2) == []


class TestPathOracle:
    @pytest.fixture
    def graph(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return topo.graph

    def test_symmetry(self, graph):
        oracle = PathOracle(graph)
        assert oracle.distance(3, 17) == pytest.approx(oracle.distance(17, 3))

    def test_identity(self, graph):
        oracle = PathOracle(graph)
        assert oracle.distance(4, 4) == 0.0

    def test_triangle_inequality(self, graph):
        oracle = PathOracle(graph)
        a, b, c = 1, 10, 20
        assert oracle.distance(a, c) <= oracle.distance(a, b) + oracle.distance(b, c) + 1e-9

    def test_caching_counts_runs(self, graph):
        oracle = PathOracle(graph)
        oracle.distance(2, 5)
        oracle.distance(2, 9)
        oracle.distance(2, 11)
        assert oracle.dijkstra_runs == 1
        oracle.distance(7, 2)  # symmetric reuse of source 2
        assert oracle.dijkstra_runs == 1

    def test_cache_eviction_bound(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        for src in range(5):
            oracle.distances_from(src)
        assert oracle.cached_sources <= 2

    def test_path_endpoints_and_cost(self, graph):
        oracle = PathOracle(graph)
        _, parent = dijkstra_csr(graph, 0)
        p = reconstruct_path(parent, 0, 30)
        assert p[0] == 0 and p[-1] == 30
        cost = sum(
            graph.edge_weight(u, v) for u, v in zip(p, p[1:])
        )
        assert cost == pytest.approx(oracle.distance(0, 30))

    def test_pure_python_matches_scipy(self, graph):
        fast = PathOracle(graph, use_scipy=True)
        slow = PathOracle(graph, use_scipy=False)
        for src in (0, 7, 23):
            np.testing.assert_allclose(
                fast.distances_from(src), slow.distances_from(src)
            )


class TestAgainstNetworkx:
    def test_distances_match_networkx(self):
        nx = pytest.importorskip("networkx")
        topo = generate_transit_stub(TransitStubParams(), RngStreams(21))
        g = topo.graph
        ng = nx.Graph()
        ng.add_nodes_from(range(g.num_vertices))
        for u, v, w in g.edges():
            ng.add_edge(u, v, weight=w)
        oracle = PathOracle(g, use_scipy=False)
        lengths = nx.single_source_dijkstra_path_length(ng, 0, weight="weight")
        ours = oracle.distances_from(0)
        for v, d in lengths.items():
            assert ours[v] == pytest.approx(d)


class TestReconstructPathValidation:
    def test_target_out_of_range(self):
        g = line_graph(3)
        _, parent = dijkstra_csr(g, 0)
        with pytest.raises(IndexError, match="target 5 out of range"):
            reconstruct_path(parent, 0, 5)

    def test_negative_target_rejected(self):
        """Negative targets must not silently wrap around (numpy indexing)."""
        g = line_graph(3)
        _, parent = dijkstra_csr(g, 0)
        with pytest.raises(IndexError, match="target -1 out of range"):
            reconstruct_path(parent, 0, -1)

    def test_source_out_of_range(self):
        g = line_graph(3)
        _, parent = dijkstra_csr(g, 0)
        with pytest.raises(IndexError, match="source"):
            reconstruct_path(parent, 9, 1)


class TestLRUPromotion:
    """The bounded cache is a real LRU: hits promote and evictions take
    the least-recently-used row."""

    @pytest.fixture
    def graph(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return topo.graph

    def test_hit_promotes_entry(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        oracle.distances_from(0)
        oracle.distances_from(1)
        oracle.distances_from(0)  # promote 0 above 1
        oracle.distances_from(2)  # must evict 1, not 0
        runs = oracle.dijkstra_runs
        oracle.distances_from(0)
        assert oracle.dijkstra_runs == runs, "0 was promoted, must still be cached"
        oracle.distances_from(1)
        assert oracle.dijkstra_runs == runs + 1, "1 was the LRU victim"

    def test_repeated_source_sweep_runs_flat(self, graph):
        """Acceptance: with the bound set, a repeated-source sweep performs
        no more Dijkstra runs than distinct sources (FIFO would thrash)."""
        sources = [0, 1, 2, 3]
        oracle = PathOracle(graph, max_cached_sources=len(sources))
        for _ in range(5):
            for s in sources:
                oracle.distance(s, 17)
        assert oracle.dijkstra_runs == len(sources)
        assert oracle.cache_evictions == 0

    def test_eviction_counter_and_bound(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        for s in range(5):
            oracle.distances_from(s)
        assert oracle.cached_sources == 2
        assert oracle.cache_evictions == 3

    def test_bound_must_be_positive(self, graph):
        with pytest.raises(ValueError):
            PathOracle(graph, max_cached_sources=0)


class TestBatchedOracle:
    @pytest.fixture
    def graph(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return topo.graph

    def test_distances_many_matches_single(self, graph):
        batched = PathOracle(graph)
        single = PathOracle(graph)
        sources = [0, 7, 23, 41]
        rows = batched.distances_many(sources)
        assert rows.shape == (len(sources), graph.num_vertices)
        for i, s in enumerate(sources):
            np.testing.assert_allclose(rows[i], single.distances_from(s))

    def test_distances_many_one_batch_call(self, graph):
        oracle = PathOracle(graph)
        oracle.distances_many([0, 7, 23, 41])
        assert oracle.batch_calls == 1
        assert oracle.dijkstra_runs == 4

    def test_distances_many_dedup_preserves_order(self, graph):
        oracle = PathOracle(graph)
        rows = oracle.distances_many([5, 2, 5, 2, 5])
        assert rows.shape[0] == 5
        assert oracle.dijkstra_runs == 2
        np.testing.assert_allclose(rows[0], rows[2])
        np.testing.assert_allclose(rows[1], rows[3])

    def test_distances_many_reuses_cache(self, graph):
        oracle = PathOracle(graph)
        oracle.distances_from(7)
        oracle.distances_many([7, 9])
        assert oracle.dijkstra_runs == 2  # 7 was a hit, only 9 computed

    def test_distances_many_empty(self, graph):
        oracle = PathOracle(graph)
        rows = oracle.distances_many([])
        assert rows.shape == (0, graph.num_vertices)
        assert oracle.dijkstra_runs == 0

    def test_distances_many_pure_python(self, graph):
        fast = PathOracle(graph, use_scipy=True)
        slow = PathOracle(graph, use_scipy=False)
        sources = [0, 7, 23]
        np.testing.assert_allclose(
            fast.distances_many(sources), slow.distances_many(sources)
        )
        assert slow.batch_calls == 0  # fallback loops over dijkstra_csr

    def test_distances_many_valid_beyond_bound(self, graph):
        """Rows are correct even when a bounded cache cannot hold them."""
        oracle = PathOracle(graph, max_cached_sources=2)
        reference = PathOracle(graph)
        sources = list(range(6))
        rows = oracle.distances_many(sources)
        for i, s in enumerate(sources):
            np.testing.assert_allclose(rows[i], reference.distances_from(s))
        assert oracle.cached_sources == 2

    def test_route_costs_matches_distance(self, graph):
        batched = PathOracle(graph)
        single = PathOracle(graph)
        gen = RngStreams(3).stream("pairs")
        n = graph.num_vertices
        pairs = [
            (int(gen.integers(n)), int(gen.integers(n))) for _ in range(200)
        ]
        costs = batched.route_costs(pairs)
        expected = [single.distance(u, v) for u, v in pairs]
        np.testing.assert_allclose(costs, expected)

    def test_route_costs_empty(self, graph):
        oracle = PathOracle(graph)
        assert oracle.route_costs([]).shape == (0,)

    def test_route_costs_same_endpoint_is_zero(self, graph):
        oracle = PathOracle(graph)
        assert oracle.route_costs([(4, 4)])[0] == 0.0

    def test_prewarm_makes_sweep_all_hits(self, graph):
        oracle = PathOracle(graph)
        sources = [0, 3, 9, 12]
        computed = oracle.prewarm(sources)
        assert computed == len(sources)
        before = oracle.cache_misses
        for s in sources:
            oracle.distance(s, 20)
        assert oracle.cache_misses == before
        assert oracle.prewarm(sources) == 0  # idempotent

    def test_cache_stats_snapshot(self, graph):
        oracle = PathOracle(graph)
        stats = oracle.cache_stats()
        assert stats["hit_rate"] != stats["hit_rate"]  # NaN before lookups
        oracle.distance(0, 5)
        oracle.distance(0, 9)
        stats = oracle.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["dijkstra_runs"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        oracle.reset_stats()
        assert oracle.cache_stats()["misses"] == 0
        assert oracle.cached_sources == 1  # rows survive a stats reset


class TestBackendParity:
    """Property check: the pure-Python and scipy backends agree on seeded
    transit-stub graphs — identical distance vectors, and every
    reconstructed path costs exactly the oracle's distance."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_distance_vectors_identical(self, seed):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(seed))
        g = topo.graph
        fast = PathOracle(g, use_scipy=True)
        slow = PathOracle(g, use_scipy=False)
        sources = [0, 5, g.num_vertices // 2, g.num_vertices - 1]
        np.testing.assert_allclose(
            fast.distances_many(sources),
            slow.distances_many(sources),
        )

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_paths_have_equal_cost(self, seed):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(seed))
        g = topo.graph
        fast = PathOracle(g, use_scipy=True)
        slow = PathOracle(g, use_scipy=False)

        def path_cost(p):
            return sum(g.edge_weight(u, v) for u, v in zip(p, p[1:]))

        for s in (0, 9):
            _, parent = dijkstra_csr(g, s)
            for t in (1, g.num_vertices // 3, g.num_vertices - 1):
                p = reconstruct_path(parent, s, t)
                assert p[0] == s and p[-1] == t
                assert path_cost(p) == pytest.approx(fast.distance(s, t))
                assert path_cost(p) == pytest.approx(slow.distance(s, t))


# ---------------------------------------------------------------------------
# Hierarchical (transit-stub) rows
# ---------------------------------------------------------------------------
PARAMS = st.builds(
    TransitStubParams,
    num_transit_domains=st.integers(1, 3),
    transit_nodes_per_domain=st.integers(1, 4),
    stub_domains_per_transit=st.integers(0, 3),
    stub_nodes_per_domain=st.integers(1, 6),
    intra_edge_prob=st.sampled_from([0.0, 0.3, 1.0]),
)


def _queries(topo, rng):
    """A mixed query sequence: transit sources, same-stub pairs and
    cross-stub pairs through every public entry point."""
    transit = list(topo.transit_routers)
    stubs = list(topo.domains.values())
    pairs = [(int(rng.choice(transit)), int(rng.integers(topo.num_routers)))]
    for members in stubs[:3]:
        pairs.append((int(rng.choice(members)), int(rng.choice(members))))
    for a, b in zip(stubs, stubs[1:4]):
        pairs.append((int(rng.choice(a)), int(rng.choice(b))))
    sources = [int(s) for s in rng.integers(topo.num_routers, size=5)]
    return [
        ("prewarm", sources[:2]),
        ("distance", pairs),
        ("distances_from", [p[0] for p in pairs] + transit[:2]),
        ("distances_many", sources + [p[1] for p in pairs]),
        ("route_costs", pairs + [(b, a) for a, b in pairs]),
        ("prewarm", sources + transit),
    ]


def _run(oracle, queries):
    out = []
    for op, arg in queries:
        if op == "distance":
            out.append((op, arg, np.array([oracle.distance(u, v) for u, v in arg])))
        elif op == "distances_from":
            out.append((op, arg, np.stack([oracle.distances_from(s) for s in arg])))
        elif op == "prewarm":
            out.append((op, arg, oracle.prewarm(arg)))
        else:
            out.append((op, arg, getattr(oracle, op)(arg)))
    stats = oracle.cache_stats()
    stats.pop("hit_rate")
    return out, stats


def _check_against_dijkstra(graph, results):
    rows = {}

    def ref(s):
        if s not in rows:
            rows[s] = dijkstra_csr(graph, s)[0]
        return rows[s]

    for op, arg, got in results:
        if op in ("distance", "route_costs"):
            expect = np.array([ref(u)[v] for u, v in arg])
        elif op in ("distances_from", "distances_many"):
            expect = np.stack([ref(s) for s in arg])
        else:
            continue
        np.testing.assert_allclose(got, expect, rtol=HIERARCHY_RTOL, atol=0)


class TestHierarchicalOracle:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=PARAMS, seed=st.integers(0, 2**16), bound=st.sampled_from([None, 3]))
    @example(params=TransitStubParams(stub_nodes_per_domain=1), seed=1, bound=None)
    @example(params=TransitStubParams(stub_domains_per_transit=0), seed=2, bound=None)
    @example(params=TransitStubParams(num_transit_domains=1), seed=3, bound=2)
    def test_matches_dijkstra_with_identical_counters(self, params, seed, bound):
        topo = generate_transit_stub(params, RngStreams(seed))
        queries = _queries(topo, np.random.default_rng(seed))
        for use_scipy in (True, False):
            plain = PathOracle(topo.graph, bound, use_scipy=use_scipy)
            hier = PathOracle(topo.graph, bound, use_scipy=use_scipy, topology=topo)
            results, stats = _run(hier, queries)
            _check_against_dijkstra(topo.graph, results)
            assert stats == _run(plain, queries)[1]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_same_stub_and_core_entries_bit_identical(self, seed):
        params = TransitStubParams(stub_nodes_per_domain=7, intra_edge_prob=0.3)
        topo = generate_transit_stub(params, RngStreams(seed))
        hier = PathOracle(topo.graph, topology=topo)
        transit = list(topo.transit_routers)
        for s in transit:
            ref = dijkstra_csr(topo.graph, s)[0]
            assert np.array_equal(hier.distances_from(s)[transit], ref[transit])
        for members in topo.domains.values():
            for s in members[:2]:
                ref = dijkstra_csr(topo.graph, s)[0]
                assert np.array_equal(hier.distances_from(s)[members], ref[members])

    def test_records_gateways(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        assert sorted(topo.gateways) == sorted(topo.domains)
        for d, (gw, t, w) in topo.gateways.items():
            assert gw in topo.domains[d] and t in topo.transit_routers
            assert topo.graph.edge_weight(gw, t) == w

    @staticmethod
    def _with_extra_edge(topo, u, v):
        g = Graph()
        g.add_vertices(topo.num_routers)
        for a, b, w in topo.graph.edges():
            g.add_edge(a, b, w)
        g.add_edge(u, v, 5.0)
        g.freeze()
        return dataclasses.replace(topo, graph=g)

    def test_second_exit_edge_raises(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        gw, t, _ = topo.gateways[0]
        other = next(r for r in topo.transit_routers if r != t)
        inner = next(r for r in topo.domains[0] if r != gw)
        bad = self._with_extra_edge(topo, inner, other)
        with pytest.raises(ValueError, match="exit edges"):
            PathOracle(bad.graph, topology=bad)
        with pytest.raises(ValueError, match="different graph"):
            PathOracle(topo.graph, topology=bad)

    def test_stub_to_stub_edge_raises(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        a, b = topo.domains[0][0], topo.domains[1][0]
        bad = self._with_extra_edge(topo, a, b)
        with pytest.raises(ValueError, match="exit edges"):
            PathOracle(bad.graph, topology=bad)

    def test_unrecorded_gateway_raises(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        bare = dataclasses.replace(topo, gateways={})
        with pytest.raises(ValueError, match="recorded gateway"):
            PathOracle(topo.graph, topology=bare)
