"""Span recording at the public layer boundaries of ``repro``, from outside.

The traced benchmark run wraps each public entry point of a layer (the
names in :data:`ENTRY_POINTS`) in a timing shim, records one span per call
in flat in-memory columns, and derives per-layer self time afterwards.
Nothing under ``src/`` is modified: :class:`Patches` rebinds the module,
class and re-export attributes that callers actually resolve, and restores
every original when the traced round ends.

A span has a name, a start, an end, a parent span and a request id.  The
request id is the route, discovery, tree or engine event that caused the
span: the request kinds (:data:`REQUEST_NAMES` and every dispatched engine
event) open a new id when no request is already open, and every other
span inherits the id current when it opens.

Self time of a span is its duration minus the durations of its direct
children (calls are synchronous, so children never overlap).  Summed per
layer, self times plus ``driver`` (window wall time no root span covers)
account for the window's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers in report order; ``driver`` is appended when metrics are derived.
LAYERS = (
    "net",
    "overlay",
    "routing",
    "location",
    "ldt",
    "protocol",
    "engine",
    "metrics",
    "bristle",
    "mobility",
    "statebinding",
)

#: Module → layer, used for engine event callbacks (closures and bound
#: methods scheduled on the engine).  A callback from any other module is
#: charged to ``engine``.
MODULE_LAYER = {
    "repro.net.shortest_path": "net",
    "repro.net.transit_stub": "net",
    "repro.net.underlay": "net",
    "repro.overlay.base": "overlay",
    "repro.core.routing": "routing",
    "repro.core.location": "location",
    "repro.core.ldt": "ldt",
    "repro.core.ldt_forest": "ldt",
    "repro.core.protocol": "protocol",
    "repro.sim.engine": "engine",
    "repro.sim.metrics": "metrics",
    "repro.sim.nodestats": "metrics",
    "repro.core.bristle": "bristle",
    "repro.core.mobility": "mobility",
    "repro.core.statebinding": "statebinding",
}

#: (layer, module, class or None, attribute names).  Class entries are
#: patched on the class and on every subclass that overrides the name.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("net", "repro.net.shortest_path", "PathOracle", (
        "__init__", "distances_many", "prewarm", "route_costs", "distance",
        "distances_from", "path", "hop_count",
    )),
    ("net", "repro.net.transit_stub", None, ("generate_transit_stub",)),
    ("net", "repro.net.underlay", None, ("build_underlay",)),
    ("overlay", "repro.overlay.base", "Overlay", ("route", "owner_of", "build")),
    ("routing", "repro.core.routing", None, (
        "route_with_resolution", "route_preferring_resolved",
    )),
    ("location", "repro.core.location", "LocationDirectory", (
        "publish", "publish_many", "withdraw", "expire_leases",
        "rebalance_after_membership_change",
        "resolve", "resolve_at", "holders_for", "holders_for_many",
        "records_at", "holder_load",
    )),
    ("location", "repro.core.location", "RegistrationManager", (
        "register", "unregister", "register_from_overlay", "registry_sizes",
    )),
    ("ldt", "repro.core.ldt", None, ("build_ldt", "merge_registry_members")),
    ("ldt", "repro.core.ldt", "LDTree", (
        "edge_costs", "total_cost", "validate", "children_of", "level_histogram",
    )),
    ("ldt", "repro.core.ldt_forest", None, (
        "build_ldt_forest", "build_forest_columns", "forest_from_columns",
    )),
    ("ldt", "repro.core.ldt_forest", "LDTForest", ("tree", "validate")),
    ("protocol", "repro.core.protocol", "BristleProtocol", (
        "send", "latency", "advertise", "advertise_many", "discover",
    )),
    ("engine", "repro.sim.engine", "Engine", (
        "run", "step", "schedule", "schedule_in", "schedule_every",
    )),
    ("metrics", "repro.sim.metrics", "Histogram", ("observe", "observe_many")),
    ("metrics", "repro.sim.nodestats", "NodeLoadLedger", ("add", "add_many")),
    ("bristle", "repro.core.bristle", "BristleNetwork", (
        "__init__", "move", "move_many", "discover",
        "build_ldt_for", "build_ldt_for_many", "ldt_for", "ldt_for_many",
        "build_ldt_for_group", "ldt_for_group",
        "network_distance_between_keys", "route_costs_between_keys",
        "prewarm_oracle", "setup_registrations_from_overlay",
        "setup_random_registrations", "setup_local_registrations",
        "join_mobile_node", "leave_mobile_node",
    )),
    ("mobility", "repro.core.mobility", None, ("shuffle_all_mobile",)),
)

#: Entry points that start a request (route, discovery, tree).
REQUEST_NAMES = frozenset({
    "routing.route_with_resolution",
    "routing.route_preferring_resolved",
    "bristle.BristleNetwork.discover",
    "protocol.BristleProtocol.discover",
    "bristle.BristleNetwork.build_ldt_for",
})

#: Directory operations that change state; every other location entry
#: point is a read.
LOCATION_WRITES = frozenset({
    "publish", "publish_many", "withdraw", "expire_leases",
    "rebalance_after_membership_change",
    "register", "unregister", "register_from_overlay",
})

#: Counters filled by result hooks on specific entry points.
HOOK_COUNTERS = ("overlay.hops", "routing.resolutions", "ldt.trees",
                 "ldt.members", "metrics.observations")

_MARK = "__perfbench_original__"


class SpanRecorder:
    """In-memory span store: one row per call in flat ``array`` columns."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.name_id = array("l")
        self.counters: Dict[str, int] = {name: 0 for name in HOOK_COUNTERS}
        self._stack: List[int] = []
        self._open_requests = 0
        self._current_request = 0
        self._last_request = 0

    def intern(self, name: str, layer: str) -> int:
        """Id of span name ``name`` (charged to ``layer``)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def begin(self, nid: int, is_request: bool) -> int:
        idx = len(self.start)
        stack = self._stack
        if is_request:
            if not self._open_requests:
                self._last_request += 1
                self._current_request = self._last_request
            self._open_requests += 1
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self._current_request)
        self.name_id.append(nid)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int, is_request: bool) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        if is_request:
            self._open_requests -= 1

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as NumPy columns (start/end in seconds)."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "request": np.asarray(self.request, dtype=np.int64),
            "name_id": np.asarray(self.name_id, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span and the name table to ``path`` (``.npz``)."""
        cols = self.columns()
        for key in ("parent", "request", "name_id"):
            cols[key] = cols[key].astype(np.int32)
        np.savez(path, names=np.asarray(self.names), layers=np.asarray(self.layers), **cols)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the direct children's durations."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def window_profile(rec: SpanRecorder, t0: float, t1: float) -> Dict[str, object]:
    """Per-layer calls and self time of the spans that start in ``[t0, t1]``.

    ``driver`` gets the window's wall time that no root span covers, so
    the layer self times plus ``driver`` sum to ``t1 - t0``.
    """
    cols = rec.columns()
    sel = (cols["start"] >= t0) & (cols["start"] <= t1)
    idx = np.flatnonzero(sel)
    st = self_times(cols["start"], cols["end"], cols["parent"])[idx]
    layer_of = np.asarray([LAYERS.index(layer) for layer in rec.layers] or [0],
                          dtype=np.int64)
    nids = cols["name_id"][idx]
    lid = layer_of[nids]
    calls = np.bincount(lid, minlength=len(LAYERS))
    self_s = np.bincount(lid, weights=st, minlength=len(LAYERS))
    roots = idx[cols["parent"][idx] < 0]
    covered = float(np.sum(cols["end"][roots] - cols["start"][roots]))
    by_name_calls = np.bincount(nids, minlength=len(rec.names))
    by_name_self = np.bincount(nids, weights=st, minlength=len(rec.names))
    out: Dict[str, object] = {
        "calls": {layer: int(calls[i]) for i, layer in enumerate(LAYERS)},
        "self_s": {layer: float(self_s[i]) for i, layer in enumerate(LAYERS)},
        "by_name": {
            name: (int(by_name_calls[i]), float(by_name_self[i]))
            for i, name in enumerate(rec.names)
            if by_name_calls[i]
        },
    }
    out["calls"]["driver"] = int(roots.size)
    out["self_s"]["driver"] = (t1 - t0) - covered
    return out


def _plain_wrapper(fn: Callable, rec: SpanRecorder, nid: int, is_request: bool) -> Callable:
    begin, finish = rec.begin, rec.finish

    def wrapper(*args, **kwargs):
        i = begin(nid, is_request)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(i, is_request)

    return wrapper


def _hooked_wrapper(
    fn: Callable, rec: SpanRecorder, nid: int, is_request: bool,
    hook: Callable[[object, Dict[str, int]], None],
) -> Callable:
    begin, finish, counters = rec.begin, rec.finish, rec.counters

    def wrapper(*args, **kwargs):
        i = begin(nid, is_request)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(i, is_request)
        hook(result, counters)
        return result

    return wrapper


def _observe_many_wrapper(fn: Callable, rec: SpanRecorder, nid: int) -> Callable:
    # The values argument may be a generator, so count from the histogram.
    begin, finish, counters = rec.begin, rec.finish, rec.counters

    def wrapper(self, *args, **kwargs):
        before = len(self)
        i = begin(nid, False)
        try:
            return fn(self, *args, **kwargs)
        finally:
            finish(i, False)
            counters["metrics.observations"] += len(self) - before

    return wrapper


def _hook_overlay_route(result, counters):
    counters["overlay.hops"] += result.hop_count


def _hook_resolutions(result, counters):
    counters["routing.resolutions"] += result.resolutions


def _hook_tree(result, counters):
    counters["ldt.trees"] += 1
    counters["ldt.members"] += result.num_members


def _hook_forest(result, counters):
    counters["ldt.trees"] += result.num_trees
    counters["ldt.members"] += result.num_members


def _hook_observe(result, counters):
    counters["metrics.observations"] += 1


_HOOKS = {
    "overlay.Overlay.route": _hook_overlay_route,
    "routing.route_with_resolution": _hook_resolutions,
    "routing.route_preferring_resolved": _hook_resolutions,
    "ldt.build_ldt": _hook_tree,
    "ldt.build_ldt_forest": _hook_forest,
    "metrics.Histogram.observe": _hook_observe,
}


def import_all_repro() -> None:
    """Import every ``repro`` module, so none binds a wrapper by name
    while patches are installed and keeps it after they are restored."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _repro_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Patches:
    """Install span wrappers on every entry point; restore them exactly.

    Functions are rebound in their defining module and in every loaded
    ``repro`` module that imported them by name; methods are rebound on
    the defining class and on each subclass that overrides them.
    ``Engine.schedule``/``schedule_every`` additionally wrap the callback,
    so every dispatched event becomes a request span charged to the
    layer of the callback's module.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []
        self._event_ids: Dict[str, int] = {}

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("patches already installed")
        modules = _repro_modules()
        for layer, modname, clsname, attrs in ENTRY_POINTS:
            module = importlib.import_module(modname)
            if clsname is None:
                for attr in attrs:
                    original = getattr(module, attr)
                    wrapped = self._wrap(original, f"{layer}.{attr}", layer)
                    for mod in modules:
                        if mod.__dict__.get(attr) is original:
                            self._set(mod, attr, wrapped)
                continue
            for cls in _subclasses(getattr(module, clsname)):
                for attr in attrs:
                    original = cls.__dict__.get(attr)
                    if original is None:
                        continue
                    name = f"{layer}.{clsname}.{attr}"
                    self._set(cls, attr, self._wrap(original, name, layer))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, original: Callable, name: str, layer: str) -> Callable:
        rec = self.rec
        nid = rec.intern(name, layer)
        is_request = name in REQUEST_NAMES
        if name == "engine.Engine.schedule":
            wrapper = self._schedule_wrapper(original, nid, request_events=True)
        elif name == "engine.Engine.schedule_every":
            wrapper = self._schedule_wrapper(original, nid, request_events=False)
        elif name == "metrics.Histogram.observe_many":
            wrapper = _observe_many_wrapper(original, rec, nid)
        elif name in _HOOKS:
            wrapper = _hooked_wrapper(original, rec, nid, is_request, _HOOKS[name])
        else:
            wrapper = _plain_wrapper(original, rec, nid, is_request)
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, _MARK, original)
        return wrapper

    def _callback_wrapper(self, callback: Callable, is_request: bool) -> Callable:
        module = getattr(callback, "__module__", None) or ""
        layer = MODULE_LAYER.get(module, "engine")
        key = f"{layer}.event" if is_request else f"{layer}.periodic"
        nid = self._event_ids.get(key)
        if nid is None:
            nid = self._event_ids[key] = self.rec.intern(key, layer)
        return _plain_wrapper(callback, self.rec, nid, is_request)

    def _schedule_wrapper(self, original: Callable, nid: int, *, request_events: bool) -> Callable:
        begin, finish = self.rec.begin, self.rec.finish
        wrap_cb = self._callback_wrapper

        def wrapper(engine, when, callback, *args, **kwargs):
            i = begin(nid, False)
            try:
                return original(engine, when, wrap_cb(callback, request_events), *args, **kwargs)
            finally:
                finish(i, False)

        return wrapper

    # -- restoration ----------------------------------------------------
    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def leftover_wrappers() -> List[str]:
    """Names of ``repro`` attributes that are still span wrappers."""
    found = []
    for mod in _repro_modules():
        for attr, value in list(mod.__dict__.items()):
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in value.__dict__.items():
                    if hasattr(cvalue, _MARK):
                        found.append(f"{mod.__name__}.{value.__name__}.{cattr}")
    return sorted(set(found))


def layer_metrics(
    rec: SpanRecorder,
    setup_window: Tuple[float, float],
    measure_window: Tuple[float, float],
) -> Dict[str, float]:
    """The per-layer metric set over one set-up and one measured window."""
    out: Dict[str, float] = {}
    measured = window_profile(rec, *measure_window)
    setup = window_profile(rec, *setup_window)
    for layer in LAYERS + ("driver",):
        out[f"{layer}.calls"] = float(measured["calls"][layer])
        out[f"{layer}.self_s"] = float(measured["self_s"][layer])
        out[f"setup.{layer}.self_s"] = float(setup["self_s"][layer])
    writes = reads = 0
    write_s = read_s = 0.0
    for name, (calls, self_s) in measured["by_name"].items():
        if not name.startswith("location."):
            continue
        if name.rsplit(".", 1)[-1] in LOCATION_WRITES:
            writes += calls
            write_s += self_s
        else:
            reads += calls
            read_s += self_s
    out["location.writes"] = float(writes)
    out["location.write_self_s"] = write_s
    out["location.reads"] = float(reads)
    out["location.read_self_s"] = read_s

    def calls_of(*names: str) -> float:
        return float(sum(measured["by_name"].get(n, (0, 0.0))[0] for n in names))

    out["protocol.messages"] = calls_of("protocol.BristleProtocol.send")
    out["metrics.ledger_adds"] = calls_of("metrics.NodeLoadLedger.add",
                                          "metrics.NodeLoadLedger.add_many")
    return out
