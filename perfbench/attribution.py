"""Pure helpers: layer shares, spans, percentiles and the fast-call rate.

Nothing here imports ``repro``; the tests in ``test_perfbench.py`` drive
these functions with toy inputs.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Callable, Optional

#: Layer name for self time that no ``repro`` frame is charged with: the
#: benchmark's own code and anything called from it directly.
OTHER = "other"


def layer_of_package(package_dir: str) -> Callable[[str], Optional[str]]:
    """Map a source file to its layer under the package ``package_dir``.

    ``<package_dir>/<layer>/<module>.py`` maps to ``<layer>``; a top-level
    module of the package (``cli.py``) maps to ``OTHER``; files outside
    the package (the standard library, builtins reported as ``~``) map to
    ``None`` so that their self time is charged to the calling layer.
    """
    prefix = package_dir.rstrip("/") + "/"

    def layer_of(filename: str) -> Optional[str]:
        if not filename.startswith(prefix):
            return None
        parts = filename[len(prefix):].split("/")
        return parts[0] if len(parts) > 1 else OTHER

    return layer_of


def layer_shares(
    stats: dict, layer_of: Callable[[str], Optional[str]]
) -> dict[str, float]:
    """Self-time share per layer from a ``pstats.Stats(...).stats`` dict.

    Keys are ``(filename, lineno, funcname)``; values are
    ``(cc, nc, tt, ct, callers)`` with ``callers`` mapping each caller key
    to that edge's ``(cc, nc, tt, ct)``.  A function whose file has no
    layer (a builtin, ``heapq``) has its self time split over its callers
    in proportion to the self time each edge carried, recursively, until
    it reaches a layered frame; a root with no layered ancestor lands on
    ``OTHER``.  The shares sum to 1.
    """
    memo: dict = {}

    def resolve(key, active: frozenset) -> dict[str, float]:
        """Fractions of ``key``'s self time per layer."""
        if key in memo:
            return memo[key]
        layer = layer_of(key[0])
        if layer is not None:
            out = {layer: 1.0}
        elif key in active or key not in stats:
            out = {OTHER: 1.0}
        else:
            callers = stats[key][4]
            weights = {c: edge[2] for c, edge in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                out = {OTHER: 1.0}
            else:
                out = defaultdict(float)
                for caller, w in weights.items():
                    for lay, frac in resolve(caller, active | {key}).items():
                        out[lay] += frac * w / total
                out = dict(out)
        if not active:
            memo[key] = out
        return out

    totals: dict[str, float] = defaultdict(float)
    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        for layer, frac in resolve(key, frozenset()).items():
            totals[layer] += tt * frac
    grand = sum(totals.values())
    if grand <= 0:
        return {}
    return {layer: t / grand for layer, t in totals.items()}


class Spans:
    """Nested wall-clock spans with self time.

    ``wrap`` returns a function that records one span named ``name`` per
    call.  A span's self time is its duration minus the durations of the
    spans opened while it was the innermost open span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child_seconds]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        def spanned(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return spanned


def nearest_rank(values: list, pct: float):
    """The nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def fastest_mean(values: list, share: float) -> float:
    """The mean of the largest ``share`` of ``values`` (at least one)."""
    if not values:
        raise ValueError("mean of no values")
    ordered = sorted(values)
    top = ordered[-max(1, round(share * len(ordered))):]
    return sum(top) / len(top)
