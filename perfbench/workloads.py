"""The three benchmark workloads, driven through the public API of ``repro``.

Each workload turns the benchmark seed into plain inputs (seeds, index
arrays, a schedule), builds its system in :meth:`setup` (timed in stages),
runs one fixed quantum of work in :meth:`measure` (timed in chunks) and
checks the outputs in :meth:`verify`.  A quantum is deterministic for a
seed, so every pass of every round of a run (traced or not) must produce
the same digest.

* ``route-sweep`` — Fig 7's path, read-only closed loops of routes and of
  Zipf-skewed discoveries on a shuffled 2,000 + 4,000 node network.
* ``ldt-locality`` — Fig 9's path: ``measure_ldt_costs`` with and without
  locality on two networks sharing one cold ~5,000-router underlay.
* ``live-mobility`` — ``LiveSimulation`` with early binding at N = 10,000:
  Poisson moves plus sparse timed discoveries, an open loop in virtual
  time whose wall-clock move throughput is measured.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Entry points are called through their modules, so a traced run sees the
# span wrappers installed on the module attributes.
from repro.core import BristleConfig, BristleNetwork, LiveSimulation, mobility, routing
from repro.experiments.fig9_locality import measure_ldt_costs
from repro.net import underlay
from repro.net.shortest_path import dijkstra_csr

clock = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """What one quantum did: counts, timings, digest and raw outputs.

    ``chunks`` splits the measured phase into consecutive timed pieces,
    ``(position, kind, operations, seconds)``, laid out the same way in
    every pass, so the chunk at one position runs the same work in every pass;
    ``kind`` names the operation for per-kind throughput.
    """

    ops: int
    failed: int
    window: Tuple[float, float]
    chunks: List[Tuple[str, str, int, float]]
    digest: str
    probe: Dict[str, float]
    detail: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def measured_s(self) -> float:
        return sum(c[3] for c in self.chunks)


class Laps:
    """Consecutive timed stages of a set-up: ``laps`` holds ``(stage, seconds)``."""

    def __init__(self) -> None:
        self.laps: List[Tuple[str, float]] = []
        self._last = clock()

    def lap(self, stage: str) -> None:
        now = clock()
        self.laps.append((stage, now - self._last))
        self._last = now


def _rngs(seed: int, n: int) -> List[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _addr(a) -> Optional[Tuple[int, int, int]]:
    return None if a is None else (a.router, a.port, a.epoch)


def _probe(oracles: Sequence, registries: Sequence, engines: Sequence = ()) -> Dict[str, float]:
    """Cumulative layer counters read through public accessors."""
    out = {"oracle_hits": 0.0, "oracle_misses": 0.0, "dijkstra_runs": 0.0,
           "ldt_cache_hits": 0.0, "ldt_cache_misses": 0.0, "engine_events": 0.0}
    for oracle in oracles:
        stats = oracle.cache_stats()
        out["oracle_hits"] += stats["hits"]
        out["oracle_misses"] += stats["misses"]
        out["dijkstra_runs"] += stats["dijkstra_runs"]
    for reg in registries:
        for name, key in (("ldt.cache_hits", "ldt_cache_hits"),
                          ("ldt.cache_misses", "ldt_cache_misses")):
            counter = reg.counters.get(name)
            out[key] += counter.value if counter is not None else 0
    for engine in engines:
        out["engine_events"] += engine.dispatched
    return out


def _mark(on_window: Optional[Callable[[], None]]) -> None:
    """Tell a traced run where the measured window starts and ends."""
    if on_window is not None:
        on_window()


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


class _DistanceReference:
    """Underlay distances from the pure-Python reference Dijkstra."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self._rows: Dict[int, np.ndarray] = {}

    def __call__(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        row = self._rows.get(u)
        if row is None:
            row = self._rows[u] = dijkstra_csr(self.graph, u)[0]
        return float(row[v])


# ---------------------------------------------------------------------------
# route-sweep
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RouteSweepSize:
    stationary: int = 2000
    mobile: int = 4000
    routers: int = 2600
    routes: int = 5000
    discoveries: int = 5000
    zipf_s: float = 1.1
    checked_routes: int = 2
    route_chunk: int = 500
    lookup_chunk: int = 1000


class RouteSweep:
    """Uniform stationary-pair routes, then Zipf stationary → mobile
    discoveries, on one shuffled, pre-warmed network (closed loops)."""

    name = "route-sweep"
    #: Read-only, so a round repeats its quantum on one network.
    passes = 6

    def __init__(self, size: RouteSweepSize = RouteSweepSize()) -> None:
        self.size = size

    def inputs(self, seed: int) -> Dict[str, object]:
        z = self.size
        g_net, g_route, g_disc = _rngs(seed, 3)
        src = g_route.integers(0, z.stationary, z.routes)
        dst = g_route.integers(0, z.stationary - 1, z.routes)
        dst = dst + (dst >= src)  # distinct endpoints
        ranks = np.arange(1, z.mobile + 1, dtype=np.float64) ** (-z.zipf_s)
        cdf = np.cumsum(ranks) / ranks.sum()
        rank = np.minimum(np.searchsorted(cdf, g_disc.random(z.discoveries), side="right"),
                          z.mobile - 1)
        popular = g_disc.permutation(z.mobile)
        return {
            "net_seed": int(g_net.integers(1, 2**31)),
            "route_src": src, "route_dst": dst,
            "disc_src": g_disc.integers(0, z.stationary, z.discoveries),
            "disc_dst": popular[rank],
        }

    def setup(self, inp: Dict[str, object]) -> Dict[str, object]:
        z = self.size
        laps = Laps()
        cfg = BristleConfig(seed=inp["net_seed"], naming="scrambled", p_stale=1.0)
        net = BristleNetwork(cfg, z.stationary, z.mobile, router_count=z.routers)
        laps.lap("network")
        mobility.shuffle_all_mobile(net)
        laps.lap("shuffle")
        net.prewarm_oracle()
        laps.lap("prewarm")
        st, mk = net.stationary_keys, net.mobile_keys
        pairs = [(st[a], st[b]) for a, b in zip(inp["route_src"].tolist(),
                                                inp["route_dst"].tolist())]
        lookups = [(st[a], mk[b]) for a, b in zip(inp["disc_src"].tolist(),
                                                  inp["disc_dst"].tolist())]
        laps.lap("keys")
        return {"net": net, "pairs": pairs, "lookups": lookups, "laps": laps.laps}

    def probe(self, state) -> Dict[str, float]:
        net = state["net"]
        return _probe([net.oracle], [net.telemetry.metrics])

    def measure(self, state, on_window: Optional[Callable[[], None]] = None) -> Outcome:
        net, pairs, lookups = state["net"], state["pairs"], state["lookups"]
        n = len(pairs)
        hops = np.empty(n, dtype=np.int64)
        res = np.empty(n, dtype=np.int64)
        cost = np.empty(n, dtype=np.float64)
        ok = np.empty(n, dtype=bool)
        sample: List[object] = []
        found: List[object] = []
        holder: List[int] = []
        chunks: List[Tuple[str, str, int, float]] = []
        route_chunk, lookup_chunk = self.size.route_chunk, self.size.lookup_chunk
        before = self.probe(state)
        _mark(on_window)
        t0 = clock()
        for lo in range(0, n, route_chunk):
            c0 = clock()
            for i in range(lo, min(lo + route_chunk, n)):
                s, t = pairs[i]
                tr = routing.route_with_resolution(net, s, t)
                hops[i] = tr.app_hops
                res[i] = tr.resolutions
                cost[i] = tr.path_cost
                ok[i] = tr.success
                if i < self.size.checked_routes:
                    sample.append(tr)
            size = min(route_chunk, n - lo)
            chunks.append((f"routes@{lo}", "routes", size, clock() - c0))
        for lo in range(0, len(lookups), lookup_chunk):
            c0 = clock()
            for s, t in lookups[lo:lo + lookup_chunk]:
                d = net.discover(s, t)
                found.append(d.address)
                holder.append(d.holder)
            size = min(lookup_chunk, len(lookups) - lo)
            chunks.append((f"discoveries@{lo}", "discoveries", size, clock() - c0))
        t1 = clock()
        _mark(on_window)
        probe = _delta(before, self.probe(state))
        failed = int(n - ok.sum()) + sum(a is None for a in found)
        return Outcome(
            ops=n + len(lookups),
            failed=failed,
            window=(t0, t1),
            chunks=chunks,
            digest=_digest(hops, res, cost, ok, holder, [_addr(a) for a in found]),
            probe=probe,
            detail={"sample": sample, "found": found},
        )

    def verify(self, state, out: Outcome) -> List[str]:
        net, problems = state["net"], []
        ref = _DistanceReference(net.topology.graph)
        router = net.placement.router_of
        for tr in out.detail["sample"]:
            expect = sum(ref(router(r.src), router(r.dst)) for r in tr.records)
            if not math.isclose(tr.path_cost, expect, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"route {tr.source:#x}->{tr.target:#x}: path_cost "
                                f"{tr.path_cost!r} != reference {expect!r}")
        for (_, target), addr in zip(state["lookups"], out.detail["found"]):
            fresh = net.directory.resolve(target, now=net.now)
            # A missing address is a failed operation unless a record existed.
            if addr != fresh or (addr is not None and addr != net.nodes[target].address):
                problems.append(f"discovery of {target:#x} returned {addr} "
                                f"(fresh record {fresh})")
                break
        return problems


# ---------------------------------------------------------------------------
# ldt-locality
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LdtLocalitySize:
    routers: int = 5000
    stationary: int = 600
    mobile: int = 600
    trees_sampled: int = 300
    max_capacity: int = 15
    checked_edges: int = 6


class LdtLocality:
    """``measure_ldt_costs`` with locality, then without, on two networks
    that share one freshly built (cold-oracle) underlay."""

    name = "ldt-locality"
    #: The quantum warms the oracle it measures, so it runs once per set-up.
    passes = 1

    def __init__(self, size: LdtLocalitySize = LdtLocalitySize()) -> None:
        self.size = size

    def inputs(self, seed: int) -> Dict[str, object]:
        g_underlay, g_net = _rngs(seed, 2)
        return {"underlay_seed": int(g_underlay.integers(1, 2**31)),
                "net_seed": int(g_net.integers(1, 2**31))}

    def setup(self, inp: Dict[str, object]) -> Dict[str, object]:
        z = self.size
        laps = Laps()
        bundle = underlay.build_underlay(inp["underlay_seed"], z.routers)
        laps.lap("underlay")
        cfg = BristleConfig(seed=inp["net_seed"], naming="scrambled")
        nets = []
        for i in range(2):
            nets.append(BristleNetwork(cfg, z.stationary, z.mobile, underlay=bundle,
                                       max_capacity=z.max_capacity))
            laps.lap(f"network{i}")
        return {"bundle": bundle, "nets": nets, "laps": laps.laps}

    def probe(self, state) -> Dict[str, float]:
        return _probe([state["bundle"].oracle],
                      [net.telemetry.metrics for net in state["nets"]])

    def measure(self, state, on_window: Optional[Callable[[], None]] = None) -> Outcome:
        z = self.size
        before = self.probe(state)
        _mark(on_window)
        results, chunks = [], []
        t0 = clock()
        for net, loc in zip(state["nets"], (True, False)):
            c0 = clock()
            results.append(measure_ldt_costs(net, with_locality=loc,
                                             trees_sampled=z.trees_sampled))
            chunks.append((f"locality={loc}", "tree_costs", int(results[-1]["trees"]),
                           clock() - c0))
        t1 = clock()
        _mark(on_window)
        probe = _delta(before, self.probe(state))
        trees = int(sum(r["trees"] for r in results))
        # Tree-level failures need the trees themselves: see verify().
        return Outcome(
            ops=trees,
            failed=0,
            window=(t0, t1),
            chunks=chunks,
            digest=_digest([(r["per_tree_per_edge_cost"], r["trees"], r["edges"],
                             r["cache_stats"]["dijkstra_runs"]) for r in results]),
            probe=probe,
            detail={"results": results},
        )

    def verify(self, state, out: Outcome) -> List[str]:
        """Rebuild every measured tree (deterministic from its registry),
        count trees that miss a registrant as failed, and re-derive the
        reported cost from the trees and the reference Dijkstra."""
        problems: List[str] = []
        ref = _DistanceReference(state["bundle"].topology.graph)
        failed = 0
        shapes = []
        checked = 0
        for net, loc, res in zip(state["nets"], (True, False), out.detail["results"]):
            keys = [mk for mk in net.mobile_keys if net.nodes[mk].registry]
            means = []
            router = net.placement.router_of
            for mk in keys:
                tree = net.build_ldt_for(mk, locality_tie_break=loc)
                members = set(tree.nodes) - {mk}
                try:
                    tree.validate()
                    valid = True
                except AssertionError:
                    valid = False
                if not valid or members != set(net.nodes[mk].registry) \
                        or tree.num_members != len(net.nodes[mk].registry):
                    failed += 1
                costs = tree.edge_costs(net.ldt_cost_oracle)
                means.append(float(np.mean(costs)))
                shapes.append((mk, tuple(tree.edges)))
                for (a, b), c in zip(tree.edges, costs):
                    if checked >= self.size.checked_edges:
                        break
                    expect = ref(router(a), router(b))
                    if not math.isclose(c, expect, rel_tol=1e-9, abs_tol=1e-9):
                        problems.append(f"edge {a:#x}->{b:#x}: cost {c!r} != reference {expect!r}")
                    checked += 1
            if len(keys) != res["trees"]:
                problems.append(f"{len(keys)} trees rebuilt, {res['trees']} measured")
            elif not math.isclose(float(np.mean(means)), res["per_tree_per_edge_cost"],
                                  rel_tol=1e-9):
                problems.append(f"per-tree edge cost {res['per_tree_per_edge_cost']!r} "
                                f"!= rebuilt {float(np.mean(means))!r}")
        out.failed = failed
        out.digest = _digest(out.digest, shapes)
        return problems


# ---------------------------------------------------------------------------
# live-mobility
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LiveMobilitySize:
    stationary: int = 5000
    mobile: int = 5000
    #: Moves per mobile node per time unit, as in ``examples/live_network.py``.
    move_rate: float = 0.02
    #: Timed discoveries per move: the sparsest lookup point of the
    #: ext-binding experiment (50 lookups against 200 moves).
    discoveries_per_move: float = 0.25
    horizon: float = 40.0
    slices: int = 40

    @property
    def discovery_rate(self) -> float:
        return self.discoveries_per_move * self.move_rate * self.mobile


class LiveMobility:
    """Early-binding ``LiveSimulation``: Poisson moves plus a seeded
    Poisson schedule of timed discoveries, run to a fixed virtual horizon."""

    name = "live-mobility"
    #: The quantum advances the simulation, so it runs once per set-up.
    passes = 1

    def __init__(self, size: LiveMobilitySize = LiveMobilitySize()) -> None:
        self.size = size

    def inputs(self, seed: int) -> Dict[str, object]:
        z = self.size
        g_net, g_disc = _rngs(seed, 2)
        count = int(g_disc.poisson(z.discovery_rate * z.horizon))
        return {
            "net_seed": int(g_net.integers(1, 2**31)),
            "disc_time": np.sort(g_disc.uniform(0.0, z.horizon, count)),
            "disc_src": g_disc.integers(0, z.stationary + z.mobile, count),
            "disc_dst": g_disc.integers(0, z.mobile, count),
        }

    def setup(self, inp: Dict[str, object]) -> Dict[str, object]:
        z = self.size
        laps = Laps()
        cfg = BristleConfig(seed=inp["net_seed"], naming="scrambled")
        sim = LiveSimulation.create(z.stationary, z.mobile, config=cfg,
                                    move_rate=z.move_rate, binding="early")
        laps.lap("simulation")
        net = sim.net
        history = {mk: ([0.0], [net.nodes[mk].address]) for mk in net.mobile_keys}
        waves: List[object] = []
        advertise = sim.mobility.on_move

        def on_move(report) -> None:
            times, addrs = history[report.key]
            times.append(sim.engine.now)
            addrs.append(report.new_address)
            waves.append(advertise(report))

        sim.mobility.on_move = on_move
        exchanges: List[object] = []
        everyone = net.stationary_keys + net.mobile_keys
        for t, a, b in zip(inp["disc_time"].tolist(), inp["disc_src"].tolist(),
                           inp["disc_dst"].tolist()):
            sim.engine.schedule(t, _discovery_starter(sim, everyone[a], net.mobile_keys[b],
                                                      exchanges))
        laps.lap("schedule")
        return {"sim": sim, "history": history, "waves": waves, "exchanges": exchanges,
                "scheduled": len(inp["disc_time"]), "laps": laps.laps}

    def probe(self, state) -> Dict[str, float]:
        sim = state["sim"]
        return _probe([sim.net.oracle], [sim.net.telemetry.metrics], [sim.engine])

    def measure(self, state, on_window: Optional[Callable[[], None]] = None) -> Outcome:
        sim = state["sim"]
        before = self.probe(state)
        _mark(on_window)
        chunks = []
        t0 = clock()
        for k in range(1, self.size.slices + 1):
            moved = sim.mobility.moves_performed
            c0 = clock()
            sim.run(until=self.size.horizon * k / self.size.slices)
            chunks.append((f"slice{k}", "moves", sim.mobility.moves_performed - moved,
                           clock() - c0))
        t1 = clock()
        _mark(on_window)
        probe = _delta(before, self.probe(state))
        moves = sim.mobility.moves_performed
        summary = sim.summary()
        # Drain in-flight waves and replies so every operation can be judged.
        sim.stop()
        sim.engine.run()
        return Outcome(
            ops=moves + state["scheduled"],
            failed=0,
            window=(t0, t1),
            chunks=chunks,
            digest=_digest(sorted(summary.items())),
            probe=probe,
            detail={"summary": summary},
        )

    def verify(self, state, out: Outcome) -> List[str]:
        """A discovery fails when its reply carries no address or one the
        target did not hold while the exchange was in flight; a move fails
        when its advertisement wave is incomplete after the drain."""
        problems: List[str] = []
        history, exchanges = state["history"], state["exchanges"]
        bad = 0
        results = []
        for ex in exchanges:
            times, addrs = history[ex.target]
            lo = bisect.bisect_right(times, ex.started_at) - 1
            hi = bisect.bisect_right(times, ex.resolved_at)
            if ex.address is None or ex.address not in addrs[max(lo, 0):hi]:
                bad += 1
            results.append((ex.requester, ex.target, _addr(ex.address), ex.resolved_at))
        if len(exchanges) != state["scheduled"]:
            problems.append(f"{len(exchanges)} of {state['scheduled']} discoveries completed")
        incomplete = sum(not w.complete for w in state["waves"])
        moves = state["sim"].mobility.moves_performed
        if len(state["waves"]) != moves:
            problems.append(f"{len(state['waves'])} waves for {moves} moves")
        out.failed = bad + incomplete
        out.digest = _digest(out.digest, results,
                             [(w.root_key, w.expected, w.completed_at) for w in state["waves"]])
        return problems


def _discovery_starter(sim, requester: int, target: int, sink: List[object]) -> Callable[[], None]:
    def start() -> None:
        sim.protocol.discover(requester, target, on_complete=sink.append)
    return start


WORKLOADS = {w.name: w for w in (RouteSweep, LdtLocality, LiveMobility)}

#: Reduced sizes for the benchmark's own tests.
TINY = {
    "route-sweep": RouteSweepSize(stationary=60, mobile=60, routers=150,
                                  routes=200, discoveries=200),
    "ldt-locality": LdtLocalitySize(routers=300, stationary=40, mobile=40,
                                    trees_sampled=20),
    "live-mobility": LiveMobilitySize(stationary=60, mobile=60, move_rate=0.05,
                                      horizon=45.0),
}


def make(name: str, tiny: bool = False):
    cls = WORKLOADS[name]
    return cls(TINY[name]) if tiny else cls()
