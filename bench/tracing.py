"""Spans around the program's layers, for the traced run.

``Tracer.install`` wraps public functions of ``qwcycle`` where they are
looked up (the package namespace and the modules that import them), so each
call records a span: name, start, end, parent span and a few attributes.
Spans stay in memory; ``dump`` writes them out once the run is over, and
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute, span name); a missing attribute is skipped
WRAPPED = (
    ("qwcycle", "limiting_distribution", "asymptotics.limiting_distribution"),
    ("qwcycle", "asymptotic_reduced_density", "asymptotics.asymptotic_reduced_density"),
    ("qwcycle", "bloch_temperature_scan", "thermo.scan"),
    ("qwcycle", "coin_phase_temperature_scan", "thermo.scan"),
    ("qwcycle", "run_verification", "verify.run_verification"),
    ("qwcycle.cli", "main", "cli.main"),
    ("qwcycle.cli", "parse_state", "state.parse_state"),
    ("qwcycle.cli", "limiting_distribution", "asymptotics.limiting_distribution"),
    ("qwcycle.cli", "asymptotic_reduced_density", "asymptotics.asymptotic_reduced_density"),
    ("qwcycle.cli", "bloch_temperature_scan", "thermo.scan"),
    ("qwcycle.cli", "coin_phase_temperature_scan", "thermo.scan"),
    ("qwcycle.cli", "time_avg_distribution", "evolution.time_avg"),
    ("qwcycle.cli", "time_avg_reduced_density", "evolution.time_avg"),
    ("qwcycle.cli", "check_distribution", "evolution.check"),
    ("qwcycle.cli", "check_reduced_density", "evolution.check"),
    ("qwcycle.verify", "limiting_distribution", "asymptotics.limiting_distribution"),
    ("qwcycle.verify", "asymptotic_reduced_density", "asymptotics.asymptotic_reduced_density"),
    ("qwcycle.thermo", "asymptotic_reduced_density", "asymptotics.asymptotic_reduced_density"),
    ("qwcycle.thermo", "momentum_spinors", "state.momentum_spinors"),
    ("qwcycle.asymptotics", "solve_all_blocks", "spectral.solve_all_blocks"),
    ("qwcycle.asymptotics", "degeneracy_table", "spectral.degeneracy_table"),
    ("qwcycle.asymptotics", "momentum_spinors", "state.momentum_spinors"),
    ("qwcycle.asymptotics", "check_distribution", "evolution.check"),
    ("qwcycle.asymptotics", "check_reduced_density", "evolution.check"),
)

COMPUTE = {
    "asymptotics.limiting_distribution",
    "asymptotics.asymptotic_reduced_density",
    "thermo.scan",
    "evolution.time_avg",
    "verify.run_verification",
}

# every per-layer metric with its unit, in the order they are printed
LAYER_UNITS = {
    "spectral.solve_all_blocks.miss_ms": "ms",
    "spectral.cache_hit_ratio": "ratio",
    "spectral.degeneracy_table.us": "us",
    "spectral.cross_pairs": "count",
    "state.momentum_spinors.us": "us",
    "state.parse_state.ms": "ms",
    "asymptotics.limiting_distribution.self_ms": "ms",
    "asymptotics.asymptotic_reduced_density.self_ms": "ms",
    "evolution.time_avg.us_per_step": "us",
    "evolution.check.us": "us",
    "verify.oracle_ms": "ms",
    "verify.oracle.us_per_instance_step": "us",
    "verify.closed_form_ms": "ms",
    "thermo.fast.us_per_point": "us",
    "thermo.fallback_points": "count",
    "thermo.fallback.ms_per_point": "ms",
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, sid: int, name: str, parent: int | None) -> None:
        self.id, self.name, self.parent = sid, name, parent
        self.start = self.end = 0.0
        self.attrs: dict[str, Any] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the functions in WRAPPED while installed; one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span.id)
            misses = cache_info().misses if cache_info else None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if cache_info:
                span.attrs["miss"] = cache_info().misses > misses
            _annotate(span, args, out)
            return out

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def _annotate(span: Span, args: tuple, out: Any) -> None:
    """Record what the layer metrics need about one call."""
    if span.name == "asymptotics.limiting_distribution":
        span.attrs["coin_n"] = (args[1], len(out))
    elif span.name == "evolution.time_avg":
        span.attrs["steps"] = int(args[2])
    elif span.name == "thermo.scan":
        span.attrs["points"] = int(out.values.size)
    elif span.name == "verify.run_verification":
        cfg = args[0]
        span.attrs["instance_steps"] = (
            len(cfg.n_values) * cfg.coins_per_n * cfg.states_per_coin * cfg.t_max
        )
    elif span.name == "cli.main":
        argv = args[0]
        if "--out" in argv:
            span.attrs["bytes"] = os.path.getsize(argv[argv.index("--out") + 1])


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(
    spans: list[Span], rounds: int, cross_pairs: Callable[[Any, int], int]
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def kids(s: Span, names: set[str] | None = None) -> list[Span]:
        return [c for c in children.get(s.id, []) if names is None or c.name in names]

    def self_time(s: Span) -> float:
        return s.dur - sum(c.dur for c in kids(s))

    def mean(xs: list[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    solves = named("spectral.solve_all_blocks")
    lds = named("asymptotics.limiting_distribution")
    ards = named("asymptotics.asymptotic_reduced_density")
    avgs = named("evolution.time_avg")
    sweeps = named("verify.run_verification")
    closed = {"asymptotics.limiting_distribution", "asymptotics.asymptotic_reduced_density"}
    sweep_closed = [sum(c.dur for c in kids(s, closed)) for s in sweeps]
    sweep_oracle = [s.dur - c for s, c in zip(sweeps, sweep_closed)]

    fast_s = fast_points = fallback_s = 0.0
    fallback_points = 0
    for scan in named("thermo.scan"):
        # the first density call of a scan is its reference T0, the rest are fallbacks
        calls = sorted(kids(scan, {"asymptotics.asymptotic_reduced_density"}), key=lambda c: c.start)
        falls = calls[1:]
        fallback_points += len(falls)
        fallback_s += sum(c.dur for c in falls)
        if scan.attrs["points"] > len(falls):
            fast_points += scan.attrs["points"] - len(falls)
            fast_s += scan.dur - sum(c.dur for c in calls)

    mains = named("cli.main")
    return {
        "spectral.solve_all_blocks.miss_ms": 1e3 * _median([s.dur for s in solves if s.attrs.get("miss")]),
        "spectral.cache_hit_ratio": mean([0.0 if s.attrs.get("miss", True) else 1.0 for s in solves]),
        "spectral.degeneracy_table.us": 1e6 * _median([s.dur for s in named("spectral.degeneracy_table")]),
        "spectral.cross_pairs": mean([float(cross_pairs(*s.attrs["coin_n"])) for s in lds]),
        "state.momentum_spinors.us": 1e6 * _median([s.dur for s in named("state.momentum_spinors")]),
        "state.parse_state.ms": 1e3 * _median([s.dur for s in named("state.parse_state")]),
        "asymptotics.limiting_distribution.self_ms": 1e3 * mean([self_time(s) for s in lds]),
        "asymptotics.asymptotic_reduced_density.self_ms": 1e3 * mean([self_time(s) for s in ards]),
        "evolution.time_avg.us_per_step": (
            1e6 * sum(s.dur for s in avgs) / sum(s.attrs["steps"] for s in avgs) if avgs else 0.0
        ),
        "evolution.check.us": 1e6 * _median([s.dur for s in named("evolution.check")]),
        "verify.oracle_ms": 1e3 * mean(sweep_oracle),
        "verify.oracle.us_per_instance_step": (
            1e6 * sum(sweep_oracle) / sum(s.attrs["instance_steps"] for s in sweeps) if sweeps else 0.0
        ),
        "verify.closed_form_ms": 1e3 * mean(sweep_closed),
        "thermo.fast.us_per_point": 1e6 * fast_s / fast_points if fast_points else 0.0,
        "thermo.fallback_points": fallback_points / rounds,
        "thermo.fallback.ms_per_point": 1e3 * fallback_s / fallback_points if fallback_points else 0.0,
        "cli.main.self_ms": 1e3 * mean([s.dur - sum(c.dur for c in kids(s, COMPUTE)) for s in mains]),
        "cli.output_bytes": mean([float(s.attrs.get("bytes", 0)) for s in mains]),
    }
