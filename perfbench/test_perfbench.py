"""Tests of the benchmark's own logic (no simulator needed).

    python3 -m pytest perfbench
"""

import math

import pytest

from attribution import (
    OTHER, Spans, fastest_mean, layer_of_package, layer_shares, nearest_rank,
)

PKG = "/checkout/src/repro"
layer_of = layer_of_package(PKG)


def fn(path, name):
    return (path, 1, name)


def entry(tt, callers=None):
    """A pstats entry: (cc, nc, tt, ct, callers) with per-edge tt."""
    callers = callers or {}
    return (1, 1, tt, tt, {c: (1, 1, t, t) for c, t in callers.items()})


def test_layer_of_package():
    assert layer_of(f"{PKG}/sim/engine.py") == "sim"
    assert layer_of(f"{PKG}/cli.py") == OTHER
    assert layer_of("/usr/lib/python3.11/heapq.py") is None
    assert layer_of("~") is None
    assert layer_of("/elsewhere/repro/sim/engine.py") is None


def test_builtin_self_time_lands_on_the_calling_layer():
    run = fn(f"{PKG}/sim/engine.py", "run")
    check = fn(f"{PKG}/faults/invariants.py", "check_now")
    deliver = fn(f"{PKG}/ring/network.py", "_deliver")
    any_ = fn("~", "<built-in method builtins.any>")
    helper = fn("/usr/lib/python3.11/bisect.py", "helper")
    builtin_of_helper = fn("~", "<built-in method builtins.max>")
    orphan = fn("~", "<built-in method time.perf_counter>")
    stats = {
        run: entry(2.0),
        check: entry(1.0, {run: 1.0}),
        deliver: entry(1.0, {run: 1.0}),
        # any() ran 2 s under faults and 1 s under ring.
        any_: entry(3.0, {check: 2.0, deliver: 1.0}),
        # A library helper and the builtin it calls, both under faults.
        helper: entry(1.0, {check: 1.0}),
        builtin_of_helper: entry(0.5, {helper: 0.5}),
        orphan: entry(0.5),
    }
    shares = layer_shares(stats, layer_of)
    total = 9.0
    assert shares["sim"] == pytest.approx(2.0 / total)
    assert shares["faults"] == pytest.approx(4.5 / total)
    assert shares["ring"] == pytest.approx(2.0 / total)
    assert shares[OTHER] == pytest.approx(0.5 / total)
    assert math.fsum(shares.values()) == pytest.approx(1.0)


def test_recursive_builtins_terminate():
    a = fn("~", "a")
    b = fn("~", "b")
    stats = {a: entry(1.0, {b: 1.0}), b: entry(1.0, {a: 1.0})}
    assert layer_shares(stats, layer_of) == {OTHER: pytest.approx(1.0)}


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_span_self_time_excludes_child_spans():
    # outer 0..10 holds inner 1..4 and inner 5..6.
    spans = Spans(clock=FakeClock([0, 1, 4, 5, 6, 10]))
    spans.begin("outer")
    spans.begin("inner")
    spans.end()
    spans.begin("inner")
    spans.end()
    spans.end()
    assert spans.self_s["outer"] == pytest.approx(6)
    assert spans.self_s["inner"] == pytest.approx(4)
    assert spans.calls == {"outer": 1, "inner": 2}


def test_wrapped_span_nests_and_survives_exceptions():
    spans = Spans(clock=FakeClock([0, 2, 3, 7]))
    inner = spans.wrap("inner", lambda: 1 / 0)

    def body():
        with pytest.raises(ZeroDivisionError):
            inner()
        return "done"

    assert spans.wrap("outer", body)() == "done"
    assert spans.self_s["outer"] == pytest.approx(6)
    assert spans.self_s["inner"] == pytest.approx(1)


def test_nearest_rank_percentile():
    values = [35, 20, 15, 50, 40]
    assert nearest_rank(values, 5) == 15
    assert nearest_rank(values, 30) == 20
    assert nearest_rank(values, 40) == 20
    assert nearest_rank(values, 50) == 35
    assert nearest_rank(values, 100) == 50
    assert nearest_rank([7], 99) == 7
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank(values, 0)


def test_fastest_mean():
    values = list(range(1, 21))  # 1..20
    assert fastest_mean(values, 0.1) == 19.5  # mean of 19 and 20
    assert fastest_mean(values, 1.0) == 10.5
    assert fastest_mean([3, 9, 4], 0.1) == 9  # at least one value
    with pytest.raises(ValueError):
        fastest_mean([], 0.1)
