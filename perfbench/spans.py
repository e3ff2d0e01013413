"""Spans around the package's public functions, recorded from outside it.

The package binds names at import (``from .paths import next_hit``), so a
function is wrapped under the name its caller looks up: ``next_hit`` in
``statarb.strategies``, ``simulate_gbm`` in ``statarb.harness``, the runners
in ``harness._RUNNERS``, and so on.  Wrapping ``statarb.paths.next_hit``
alone would record nothing.

A span is ``(name, start, end, parent, job, extra)``: ``parent`` is the index
of the enclosing span (-1 at the root), ``job`` the benchmark job that caused
it and ``extra`` a small per-call record that the counters are computed from
(see ``summarize``).  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _next_hit_extra(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    start = args[1] if len(args) > 1 else kwargs["from_index"]
    return [int(start), int(path.prices.size),
            -1 if result is None else int(result[0])]


def _run_extra(args, kwargs, result):
    return [int(result.n_repetitions), result.pnl > 0.0]


def _points_extra(args, kwargs, result):
    return int(result.prices.size)


def _cycles_extra(args, kwargs, result):
    return int(result.n_cycles)


# (module, attribute or _RUNNERS key, span name, extra).  Span names are
# the defining module and function, the layer names used throughout.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("statarb.cli", "main", "cli.main", None),
    ("statarb.cli", "dump_runs_csv", "harness.dump_runs_csv", None),
    ("statarb.cli", "load_csv", "backtest.load_csv", None),
    ("statarb.cli", "run_backtest", "backtest.run_backtest", _cycles_extra),
    ("statarb.harness", "run_experiment", "harness.run_experiment", None),
    ("statarb.harness", "sweep", "harness.sweep", None),
    ("statarb.harness", "metrics", "harness.metrics", None),
    ("statarb.harness", "simulate_gbm", "paths.simulate_gbm", _points_extra),
    ("statarb.harness", "embedded_q", "gbm.embedded_q", None),
    ("statarb.harness", "embedded_phi", "gbm.embedded_phi", None),
    ("statarb.harness._RUNNERS", "embedded",
     "strategies.run_embedded_binomial", _run_extra),
    ("statarb.harness._RUNNERS", "trend", "strategies.run_follow_trend",
     _run_extra),
    ("statarb.harness._RUNNERS", "gfin", "strategies.run_gfin", _run_extra),
    ("statarb.strategies", "next_hit", "paths.next_hit", _next_hit_extra),
    ("statarb.strategies", "embedded_q", "gbm.embedded_q", None),
    ("statarb.strategies", "embedded_phi", "gbm.embedded_phi", None),
    ("statarb.strategies", "trend_strategy", "lattice.trend_strategy", None),
    ("statarb.strategies", "gfin_strategy", "lattice.gfin_strategy", None),
    ("statarb.paths.TradeLedger", "execute",
     "paths.TradeLedger.execute", None),
    ("statarb.backtest", "mle_estimate", "gbm.mle_estimate", None),
    ("statarb.backtest", "embedded_q", "gbm.embedded_q", None),
    ("statarb.backtest", "gfin_strategy", "lattice.gfin_strategy", None),
]


def _resolve(dotted: str):
    """The module, class or dict named by a dotted path under statarb."""
    module, _, rest = dotted.partition(".")
    obj = importlib.import_module(module)
    for part in rest.split(".") if rest else ():
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        missing = []
        for dotted, attr, name, extra in TARGETS:
            try:
                owner = _resolve(dotted)
            except (ImportError, AttributeError):
                owner = {}
            if isinstance(owner, dict):
                get, put = owner.get, owner.__setitem__
            else:
                get, put = owner.__dict__.get, functools.partial(setattr, owner)
            original = get(attr)
            if original is None:
                missing.append(f"{dotted}.{attr}")
                continue
            put(attr, self._wrap(original, name, extra))
            self._undo.append(functools.partial(put, attr, original))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, fn: Callable, name: str, extra: Callable | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                      None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                record[5] = extra(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(children[i], start, end)
            for i, (name, start, end, *_) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-function ``.calls``, ``.self_s`` and ``.self_frac`` (share of
    ``trace.traced_s``, the time of the root spans), plus layer counters."""
    out: dict[str, float] = defaultdict(float)
    seg = hits = scans = points = reps = positive = runs = cycles = 0
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, parent, _, extra = span
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if parent < 0:
            out["trace.traced_s"] += end - start
        if extra is None:  # no counter, or the call raised
            continue
        if name == "paths.next_hit":
            start, n_points, index = extra
            scans += 1
            hits += index >= 0
            seg += (index if index >= 0 else n_points - 1) - start
        elif name == "paths.simulate_gbm":
            points += extra
        elif name == "backtest.run_backtest":
            cycles += extra
        elif name.startswith("strategies.run_"):
            runs += 1
            reps += extra[0]
            positive += extra[1]
    out["paths.next_hit.segments"] = seg
    out["paths.next_hit.hit_ratio"] = hits / scans if scans else 0.0
    out["paths.simulate_gbm.points"] = points
    out["strategies.cycles_per_run"] = reps / runs if runs else 0.0
    out["strategies.positive_pnl_ratio"] = positive / runs if runs else 0.0
    windows = out.get("gbm.mle_estimate.calls", 0.0)
    out["backtest.cycle_ratio"] = cycles / windows if windows else 0.0
    total = out["trace.traced_s"]
    for key in [k for k in out if k.endswith(".self_s")]:
        out[key[:-len("self_s")] + "self_frac"] = out[key] / total
    return dict(out)
