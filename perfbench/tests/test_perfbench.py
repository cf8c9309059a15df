"""Tests for the benchmark's own code: span arithmetic, patch restoration,
traced/untraced digest parity and failure counting.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _nested_recorder():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)
    route = rec.intern("routing.route_with_resolution", "routing")
    hop = rec.intern("overlay.Overlay.route", "overlay")
    dist = rec.intern("net.PathOracle.distance", "net")
    # t=1..9: route [1, 9] > overlay [2, 5] > net [3, 4]; net [6, 8.5].
    clock.now = 1.0
    r = rec.begin(route, True)
    clock.now = 2.0
    o = rec.begin(hop, False)
    clock.now = 3.0
    d = rec.begin(dist, False)
    clock.now = 4.0
    rec.finish(d, False)
    clock.now = 5.0
    rec.finish(o, False)
    clock.now = 6.0
    d2 = rec.begin(dist, False)
    clock.now = 8.5
    rec.finish(d2, False)
    clock.now = 9.0
    rec.finish(r, True)
    # A second root request at [10, 10.5].
    clock.now = 10.0
    r2 = rec.begin(route, True)
    clock.now = 10.5
    rec.finish(r2, True)
    return rec


def test_self_time_arithmetic_on_nested_spans():
    rec = _nested_recorder()
    cols = rec.columns()
    own = spans.self_times(cols["start"], cols["end"], cols["parent"])
    # route: 8 - overlay 3 - net 2.5; overlay: 3 - net 1; nets: leaves.
    assert own.tolist() == [2.5, 2.0, 1.0, 2.5, 0.5]
    assert cols["parent"].tolist() == [-1, 0, 1, 0, -1]
    assert cols["request"].tolist() == [1, 1, 1, 1, 2]

    prof = spans.window_profile(rec, 0.0, 12.0)
    assert prof["self_s"]["routing"] == 3.0
    assert prof["self_s"]["overlay"] == 2.0
    assert prof["self_s"]["net"] == 3.5
    assert prof["calls"]["net"] == 2
    assert prof["calls"]["driver"] == 2
    # Layer self times plus the driver account for the window exactly.
    assert prof["self_s"]["driver"] == 12.0 - 8.5
    assert sum(prof["self_s"].values()) == pytest.approx(12.0)


def test_window_selects_spans_by_start():
    rec = _nested_recorder()
    prof = spans.window_profile(rec, 9.5, 11.0)
    assert prof["calls"]["routing"] == 1
    assert prof["calls"]["net"] == 0
    assert prof["self_s"]["driver"] == pytest.approx(1.0)


def test_request_ids_follow_the_innermost_open_request():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)
    event = rec.intern("engine.event", "engine")
    disc = rec.intern("protocol.BristleProtocol.discover", "protocol")
    cost = rec.intern("ldt.LDTree.edge_costs", "ldt")
    a = rec.begin(event, True)
    b = rec.begin(disc, True)  # nested request kind: same request
    rec.finish(b, True)
    rec.finish(a, True)
    c = rec.begin(cost, False)  # root non-request: joins the last request
    rec.finish(c, False)
    d = rec.begin(event, True)
    rec.finish(d, True)
    assert rec.columns()["request"].tolist() == [1, 1, 1, 2]


def _entry_point_attributes():
    """Every attribute the patches may rebind, with its current value."""
    spans.import_all_repro()
    seen = {}
    for mod in spans._repro_modules():
        for attr, value in mod.__dict__.items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in value.__dict__.items():
                    seen[(mod.__name__, value.__name__, cattr)] = cvalue
    return seen


def test_patches_are_fully_restored_after_a_traced_run():
    before = _entry_point_attributes()
    res = run.run_workload("route-sweep", 3, 0.0, True, tiny=True)
    assert res["correct"], res["problems"]
    assert spans.leftover_wrappers() == []
    after = _entry_point_attributes()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_patches_reach_names_imported_by_callers():
    bristle = importlib.import_module("repro.core.bristle")
    ldt = importlib.import_module("repro.core.ldt")
    original = ldt.build_ldt
    rec = spans.SpanRecorder()
    with spans.Patches(rec):
        assert bristle.build_ldt is ldt.build_ldt
        assert bristle.build_ldt is not original
        assert spans.leftover_wrappers() != []
    assert bristle.build_ldt is original and ldt.build_ldt is original


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_runs_agree(name):
    plain = run.run_workload(name, 5, 0.0, False, tiny=True)
    traced = run.run_workload(name, 5, 0.0, True, tiny=True)
    assert plain["correct"], plain["problems"]
    assert traced["correct"], traced["problems"]
    assert plain["digest"] == traced["digest"]
    assert plain["failed"] == traced["failed"] == 0
    names = {f"{prefix}{layer}.{what}"
             for layer in spans.LAYERS + ("driver",)
             for prefix, what in (("", "calls"), ("", "self_s"), ("setup.", "self_s"))}
    names |= set(spans.HOOK_COUNTERS) | {
        "trace.overhead", "net.dijkstra_runs", "net.hit_rate",
        "ldt.cache_hit_rate", "engine.events", "protocol.messages",
        "metrics.ledger_adds", "location.writes", "location.reads",
        "location.write_self_s", "location.read_self_s",
    }
    assert set(traced["metrics"]) == names
    assert set(plain["metrics"]) == {"setup_s", "ops_per_s", "peak_rss_mb"}


def test_each_piece_is_estimated_by_its_own_fastest_sample():
    rounds = [[("a", 3.0), ("b", 1.0)], [("a", 2.0), ("b", 4.0)], [("a", 5.0), ("b", 2.0)]]
    problems = []
    assert run.fastest(rounds, problems) == [2.0, 1.0]
    assert problems == []
    run.fastest([[("a", 1.0)], [("b", 1.0)]], problems)
    assert problems == ["rounds ran different pieces of work"]


def test_seed_drives_the_inputs():
    for name in run.WORKLOAD_NAMES:
        wl = workloads.make(name, tiny=True)
        a, b, c = wl.inputs(1), wl.inputs(1), wl.inputs(2)
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)


def test_route_failures_are_counted(monkeypatch):
    wl = workloads.make("route-sweep", tiny=True)
    state = wl.setup(wl.inputs(1))
    real = workloads.routing.route_with_resolution
    calls = []

    def failing_first(net, source, target):
        trace = real(net, source, target)
        calls.append(1)
        if len(calls) == 1:
            trace.success = False
        return trace

    monkeypatch.setattr(workloads.routing, "route_with_resolution", failing_first)
    out = wl.measure(state)
    assert out.failed == 1
    assert out.ops == wl.size.routes + wl.size.discoveries


def test_live_failures_are_counted():
    wl = workloads.make("live-mobility", tiny=True)
    state = wl.setup(wl.inputs(1))
    out = wl.measure(state)
    assert wl.verify(state, out) == [] and out.failed == 0
    exchanges = state["exchanges"]
    exchanges[0].address = None
    # An address the target never held while the exchange was in flight.
    other = next(k for k in state["history"] if k != exchanges[1].target)
    exchanges[1].address = state["history"][other][1][-1]
    wave = next(w for w in state["waves"] if w.expected)
    wave.arrival_times.clear()
    assert wl.verify(state, out) == []
    assert out.failed == 3


def test_ldt_tree_failures_are_counted():
    wl = workloads.make("ldt-locality", tiny=True)
    state = wl.setup(wl.inputs(1))
    out = wl.measure(state)
    net = state["nets"][0]
    real = net.build_ldt_for
    victim = next(mk for mk in net.mobile_keys if len(net.nodes[mk].registry) > 1)

    def dropping(key, *, locality_tie_break=False):
        tree = real(key, locality_tie_break=locality_tie_break)
        if key == victim:
            leaf = tree.edges[-1][1]
            tree.nodes[tree.edges[-1][0]].children.remove(leaf)
            del tree.nodes[leaf]
            tree.edges.pop()
        return tree

    net.build_ldt_for = dropping
    problems = wl.verify(state, out)
    assert out.failed == 1
    assert any("per-tree edge cost" in p for p in problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
