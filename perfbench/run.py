#!/usr/bin/env python3
"""Benchmark driver for the Bristle reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload route-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One process runs one workload (``all`` runs each in its own child process,
so every peak RSS is the workload's own).  A run is a series of rounds;
each round sets the system up from the seed's inputs, then runs one fixed
quantum of work in timed chunks and checks the outputs, ``passes`` times
(more than once only for a read-only workload).  Untraced runs repeat
rounds until ``--seconds`` of measured time and at least three rounds are
done.  Every set-up stage and every chunk runs the same work in each
round and pass, and its time is estimated by its fastest sample;
``setup_s`` is the sum of the stage estimates and ``ops_per_s`` the
quantum's operations over the sum of the chunk estimates.  A traced run
(``--trace 1``) makes one untraced round and one round with span wrappers
installed at every layer entry point, each of one pass, reports per-layer
metrics for the traced round and the traced/untraced ratio of the
measured phase, and writes the spans to
``perfbench/out/<workload>.spans.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every correctness check passed, 1 when one failed and 2 when the
program cannot be imported or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

# One process, no worker threads: keep numeric libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("route-sweep", "ldt-locality", "live-mobility")
MIN_ROUNDS = 3
#: No new round starts when it would likely end past this much wall time.
WALL_CAP_S = 140.0


def _units() -> Dict[str, str]:
    """Unit of every end-to-end and per-layer metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _import_program():
    """Import the benchmark modules against the checkout's own ``src``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spans
    import workloads

    if not Path(sys.modules["repro"].__file__).resolve().is_relative_to(src):
        raise ImportError("repro was imported from outside the checkout")
    return spans, workloads


def _round(wl, inp, spans_mod=None, passes: int = 1) -> Dict[str, object]:
    """One set-up, then ``passes`` measure + verify cycles on the same
    system; traced when ``spans_mod``."""
    gc.collect()
    rec = patches = None
    marks: List[Dict[str, int]] = []
    if spans_mod is not None:
        spans_mod.import_all_repro()
        rec = spans_mod.SpanRecorder()
        patches = spans_mod.Patches(rec)
        patches.install()
    try:
        s0 = time.perf_counter()
        state = wl.setup(inp)
        s1 = time.perf_counter()
        laps = state["laps"]
        outs, problems = [], []
        for _ in range(passes):
            outs.append(wl.measure(state, on_window=(
                lambda: marks.append(dict(rec.counters))) if rec is not None else None))
            problems += wl.verify(state, outs[-1])
    finally:
        if patches is not None:
            patches.restore()
    del state
    gc.collect()
    return {"setup": (s0, s1), "laps": laps, "outs": outs, "problems": problems,
            "rec": rec, "counters": marks}


def fastest(pieces: List[List[tuple]], problems: List[str]) -> List[float]:
    """Estimated time of each timed piece of a round or pass.

    ``pieces`` holds one list per sample (a round's set-up, or a pass's
    measured phase) of ``(*label, seconds)`` tuples, laid out the same way
    in every sample; a piece's estimate is its fastest sample.  The host
    this was tuned on slows a whole process by up to 2x for seconds at a
    time, so the fastest sample tracks the program's own cost where a
    median over a half-minute run moved by a fifth between runs.
    """
    layout = [p[:-1] for p in pieces[0]]
    if any([p[:-1] for p in round_pieces] != layout for round_pieces in pieces):
        problems.append("rounds ran different pieces of work")
        return [float("nan")] * len(layout)
    return [min(ts) for ts in zip(*([p[-1] for p in rp] for rp in pieces))]


def _traced_metrics(spans_mod, plain, traced) -> Dict[str, float]:
    rec, out = traced["rec"], traced["outs"][0]
    metrics = spans_mod.layer_metrics(rec, traced["setup"], out.window)
    before, after = traced["counters"]
    for name in spans_mod.HOOK_COUNTERS:
        metrics[name] = float(after[name] - before[name])
    probe = out.probe
    lookups = probe["oracle_hits"] + probe["oracle_misses"]
    metrics["net.dijkstra_runs"] = probe["dijkstra_runs"]
    metrics["net.hit_rate"] = probe["oracle_hits"] / lookups if lookups else 0.0
    ldt_lookups = probe["ldt_cache_hits"] + probe["ldt_cache_misses"]
    metrics["ldt.cache_hit_rate"] = (probe["ldt_cache_hits"] / ldt_lookups
                                     if ldt_lookups else 0.0)
    metrics["engine.events"] = probe["engine_events"]
    metrics["trace.overhead"] = out.measured_s / plain["outs"][0].measured_s
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, spans_out: Optional[Path] = None) -> Dict[str, object]:
    """Run one workload; returns the result object plus a printable report."""
    spans_mod, workloads = _import_program()
    wl = workloads.make(name, tiny=tiny)
    inp = wl.inputs(seed)
    rounds: List[Dict[str, object]] = []
    passes = 1 if trace else wl.passes
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        traced = trace and len(rounds) == 1
        rounds.append(_round(wl, inp, spans_mod if traced else None, passes))
        took = time.perf_counter() - r0
        if trace:
            if len(rounds) == 2:
                break
            continue
        measured = sum(o.measured_s for r in rounds for o in r["outs"])
        if len(rounds) >= MIN_ROUNDS and measured >= seconds:
            break
        if time.perf_counter() - start + 1.2 * took > WALL_CAP_S:
            break

    problems = [p for r in rounds for p in r["problems"]]
    outs = [o for r in rounds for o in r["outs"]]
    digests = sorted({o.digest for o in outs})
    if len(digests) != 1:
        problems.append(f"rounds disagree on the output digest: {digests}")
    if trace:
        leftover = spans_mod.leftover_wrappers()
        if leftover:
            problems.append(f"span wrappers left installed: {leftover}")
    attempted = sum(o.ops for o in outs)
    failed = sum(o.failed for o in outs)

    if trace:
        plain, traced = rounds
        metrics = _traced_metrics(spans_mod, plain, traced)
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            traced["rec"].save(str(spans_out))
    else:
        layout = outs[0].chunks
        chunk_s = fastest([o.chunks for o in outs], problems)
        metrics = {
            "setup_s": sum(fastest([r["laps"] for r in rounds], problems)),
            "ops_per_s": outs[0].ops / sum(chunk_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _units()
    report = {k: (v, units[k]) for k, v in metrics.items()}
    if not trace:
        for kind in dict.fromkeys(c[1] for c in layout):
            ops = sum(c[2] for c in layout if c[1] == kind)
            busy = sum(t for c, t in zip(layout, chunk_s) if c[1] == kind)
            report[f"{kind}_per_s"] = (ops / busy, "1/s")
    per_round = {
        "setup_s": [r["setup"][1] - r["setup"][0] for r in rounds],
        "measured_s": [sum(o.measured_s for o in r["outs"]) for r in rounds],
    }
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "report": report,
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else None,
        "rounds": per_round,
    }


def _print_report(name: str, seed: int, res: Dict[str, object]) -> None:
    per_round = res["rounds"]
    print(f"workload {name} seed {seed}: {len(per_round['setup_s'])} rounds, "
          f"digest {res['digest']}")
    for key, values in per_round.items():
        print(f"  rounds {key:21s} " + " ".join(f"{v:.4g}" for v in values))
    for key, (value, unit) in res["report"].items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    shares = {k[:-len(".self_s")]: v for k, (v, _) in res["report"].items()
              if k.endswith(".self_s") and not k.startswith("setup.")}
    total = sum(shares.values())
    if total:
        print("  measured-phase self time by layer: " + ", ".join(
            f"{layer} {100 * s / total:.1f}%"
            for layer, s in sorted(shares.items(), key=lambda kv: -kv[1]) if s > 0))
    print(f"  {'ops':28s} {res['attempted']:14d} count")
    print(f"  {'ops_failed':28s} {res['failed']:14d} count")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _run_all(args) -> int:
    """Every workload in its own child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       spans_out=HERE / "out" / f"{args.workload}.spans.npz")
    _print_report(args.workload, args.seed, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
