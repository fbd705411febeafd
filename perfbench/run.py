#!/usr/bin/env python3
"""Repository benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload case_b --seed 1 --seconds 35 --trace 0

Runs the named workload (see ``perfbench/README.md``) in a closed loop --
one fixed batch of simulated time per call, the next call after the last
returns -- for ``--seconds`` of host time, checks every call's outputs,
and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured with no instrumentation; ``--trace 1``
reports the per-layer metrics from an untraced and a traced phase.

The simulator is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
PINS = os.path.join(HERE, "pins.json")

from attribution import (  # noqa: E402
    OTHER, Spans, fastest_mean, layer_of_package, layer_shares, nearest_rank,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Fewest timed calls per phase, however short ``--seconds`` is.
MIN_BATCHES = 3
#: Share of a run's calls, the fastest, whose mean rate is the run's rate.
FAST_SHARE = 0.1
#: Share of a ``--trace 1`` run spent in its untraced phase.
UNTRACED_SHARE = 1 / 3
#: Layers reported as ``<layer>.self_share`` (``repro`` subpackages).
LAYERS = (
    "sim", "hardware", "unix", "drivers", "ring", "protocols", "core",
    "faults", "measure", "workloads", "experiments", "obs", OTHER,
)
#: Spans reported as ``span.<name>_ms`` (per call).
SPANS = ("build", "establish", "run", "analyse")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def forget() -> None:
    """Drop the workload module and ``repro`` from ``sys.modules``."""
    for name in list(sys.modules):
        if name in ("repro", "workloads") or name.startswith("repro."):
            del sys.modules[name]


def load(workload: str):
    """Import the workload module, and with it ``repro``."""
    mod = importlib.import_module("workloads")
    if not sys.modules["repro"].__file__.startswith(PACKAGE + os.sep):
        die(f"imported repro from {sys.modules['repro'].__file__}, not {PACKAGE}")
    wl = mod.WORKLOADS.get(workload)
    if wl is None:
        die(f"unknown workload {workload!r}; known: {sorted(mod.WORKLOADS)}")
    return mod, wl


@dataclass
class Batch:
    """One timed workload call and what it produced."""

    wall_s: float
    sim_s: float
    counters: dict
    digest: str
    failures: list
    tracer: object = None

    @property
    def events(self) -> int:
        return self.counters["sim.events"]

    @property
    def sourced(self) -> int:
        return self.counters["core.packets_sourced"]

    @property
    def delivered(self) -> int:
        return self.counters["core.delivered"]


def run_batch(mod, wl, seed: int, tracer=None, profiler=None) -> Batch:
    with mod.captured() as found:
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        result = wl.call(seed, wl.sim_seconds * mod.SEC, tracer)
        wall = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
    out = wl.outcome(result, found)
    counters = {
        **mod.model_counters(found),
        "core.packets_sourced": out.sourced,
        "core.delivered": out.delivered,
        "core.lost": out.sourced - out.delivered,
        "core.control.admitted": 0,
        "core.control.queued": 0,
        "core.control.failovers": 0,
        "core.control.stranded": 0,
        "faults.violations": 0,
        **out.counters,
    }
    material = {k: v for k, v in counters.items() if k != "sim.events"}
    return Batch(
        wall_s=wall,
        sim_s=float(wl.sim_seconds),
        counters=counters,
        digest=mod.digest({"counters": material, "outputs": out.outputs}),
        failures=list(out.failures),
        tracer=tracer,
    )


def run_for(seconds: float, step) -> list:
    """Call ``step()`` until ``seconds`` have passed, at least MIN_BATCHES times."""
    batches = []
    deadline = time.perf_counter() + seconds
    while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
        batches.append(step())
    return batches


def pinned_counters(counters: dict) -> dict:
    """The counters ``pins.json`` holds: integer model counts but events."""
    return {
        k: v for k, v in sorted(counters.items())
        if isinstance(v, int) and k != "sim.events"
    }


def check(workload: str, seed: int, mod, reference: Batch, batches: list) -> None:
    """Mark failed batches: own checks, same-seed agreement and pins."""
    for b in batches:
        if b.events != reference.events:
            b.failures.append(
                f"sim.events {b.events} != {reference.events} on the same seed"
            )
        if b.digest != reference.digest:
            b.failures.append("output digest differs on the same seed")
    if seed != mod.PIN_SEED:
        return
    with open(PINS) as f:
        pins = json.load(f).get(workload, {})
    drift = [
        f"pinned counter {k} = {reference.counters.get(k)}, pinned {v}"
        for k, v in sorted(pins.items())
        if reference.counters.get(k) != v
    ]
    if not pins:
        drift.append(f"no pinned counters for {workload}")
    for b in [reference, *batches]:
        b.failures.extend(drift)


def summary(batches: list, metrics: dict) -> dict:
    for failure in dict.fromkeys(f for b in batches for f in b.failures):
        print(f"perfbench: FAILED CHECK: {failure}", file=sys.stderr)
    return {
        "correct": not any(b.failures for b in batches),
        "attempted": sum(b.sourced for b in batches),
        "failed": sum(b.sourced for b in batches if b.failures),
        "metrics": metrics,
    }


def fast_rate(batches: list) -> float:
    """The mean rate of the fastest tenth of calls.

    On a shared host, interference only ever slows a call down, and it
    comes and goes within seconds; the calls' rates spread over tens of
    percent.  The fastest calls' rate moves several times less between
    runs than the median or mean of all calls does.
    """
    return fastest_mean([b.sim_s / b.wall_s for b in batches], FAST_SHARE)


def timed_setup(args) -> float:
    """One set-up: import ``repro`` afresh, then a zero-length call.

    The previous set-up's modules are dropped and collected first, so
    that no collection of them lands inside the timed stretch.
    """
    forget()
    gc.collect()
    t0 = time.perf_counter()
    _mod, wl = load(args.workload)
    wl.setup(args.seed)
    return time.perf_counter() - t0


def end_to_end(args) -> dict:
    setup = [timed_setup(args) for _ in range(SETUP_REPEATS)]
    mod, wl = load(args.workload)
    reference = run_batch(mod, wl, args.seed)
    batches = run_for(args.seconds, lambda: run_batch(mod, wl, args.seed))
    check(args.workload, args.seed, mod, reference, batches)
    rates = [round(b.sim_s / b.wall_s, 3) for b in batches]
    print(f"perfbench: per-call sim_rate {rates}; setup_s "
          f"{[round(s, 4) for s in setup]}", file=sys.stderr)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "sim_rate": (fast_rate(batches), "sim_s/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "delivered_frac": (reference.delivered / reference.sourced, "fraction"),
    }
    return summary([reference, *batches], metrics)


def counter_unit(key: str) -> str:
    for suffix, unit in (("_bytes", "bytes"), ("_frac", "fraction"), ("_us_per_frame", "us")):
        if key.endswith(suffix):
            return unit
    return "count"


def per_layer(args) -> dict:
    mod, wl = load(args.workload)
    reference = run_batch(mod, wl, args.seed)
    plain = run_for(
        args.seconds * UNTRACED_SHARE, lambda: run_batch(mod, wl, args.seed)
    )

    spans = Spans()
    profiler = cProfile.Profile()
    gc_s = [0.0, None]  # total, start of the collection in progress

    def on_gc(phase: str, _info: dict) -> None:
        if phase == "start":
            gc_s[1] = time.perf_counter()
        elif gc_s[1] is not None:
            gc_s[0] += time.perf_counter() - gc_s[1]
            gc_s[1] = None

    def traced_batch() -> Batch:
        tracer = mod.new_tracer() if wl.supports_tracer else None
        with mod.traced_spans(spans):
            return run_batch(mod, wl, args.seed, tracer=tracer, profiler=profiler)

    gc.callbacks.append(on_gc)
    try:
        traced = run_for(args.seconds * (1 - UNTRACED_SHARE), traced_batch)
    finally:
        gc.callbacks.remove(on_gc)
    check(args.workload, args.seed, mod, reference, plain + traced)

    n = len(traced)
    shares = layer_shares(pstats.Stats(profiler).stats, layer_of_package(PACKAGE))
    metrics = {
        "sim.ns_per_event": (
            plain[0].sim_s * 1e9 / (fast_rate(plain) * reference.events), "ns"
        ),
        "python.gc_ms": (gc_s[0] * 1000 / n, "ms"),
        "trace.overhead_frac": (1 - fast_rate(traced) / fast_rate(plain), "fraction"),
        "faults.check_calls": (spans.calls["faults.check"] / n, "count"),
        "faults.check_ms": (spans.self_s["faults.check"] * 1000 / n, "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (shares.get(layer, 0.0), "fraction")
    for name in SPANS:
        metrics[f"span.{name}_ms"] = (spans.self_s[name] * 1000 / n, "ms")
    for key, value in reference.counters.items():
        metrics[key] = (value, counter_unit(key))
    for cat, values in mod.path_latency_us(traced[-1].tracer).items():
        for pct in (50, 99):
            value = nearest_rank(values, pct) if values else 0.0
            metrics[f"path_us.{cat}.p{pct}"] = (value, "us")
    return summary([reference, *plain, *traced], metrics)


def write_pins(args) -> None:
    """Record the pinned counters of ``--workload`` at the pin seed."""
    mod, wl = load(args.workload)
    batch = run_batch(mod, wl, mod.PIN_SEED)
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    pins[args.workload] = pinned_counters(batch.counters)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perfbench: pinned {len(pins[args.workload])} counters of "
          f"{args.workload} at seed {mod.PIN_SEED}", file=sys.stderr)


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help="record the workload's counters at the pin seed in pins.json",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(PACKAGE):
        die(f"no simulator sources at {PACKAGE}")
    sys.path.insert(0, SRC)
    if args.write_pins:
        write_pins(args)
        return
    result = per_layer(args) if args.trace else end_to_end(args)
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
