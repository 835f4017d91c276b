"""Shared pieces: statistics, layer accounting, the run's work area."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

T = TypeVar("T")

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: The paper's experiments, in ``repro run all`` order.
EXPERIMENT_NAMES = (
    "table1", "table2", "figure2", "figure3", "figure4",
    "figure5", "figure6_7", "figure8", "figure9", "figure10",
)
#: Every per-layer metric, in report order, with its unit.  A traced
#: run prints all of them; a layer the workload never calls reads 0.
PER_LAYER: dict[str, str] = {
    "frontend.preprocess_s": "s",
    "frontend.lex_s": "s",
    "frontend.parse_s": "s",
    "frontend.lines": "count",
    "frontend.tokens": "count",
    "cfg.build_s": "s",
    "cfg.blocks": "count",
    "callgraph.build_s": "s",
    "callgraph.sites": "count",
    "prediction.transitions_s": "s",
    "prediction.branches": "count",
    "estimators.intra_s": "s",
    "estimators.inter_s": "s",
    "estimators.callsites_s": "s",
    "serve.report.build_s": "s",
    "serve.report.encode_s": "s",
    "serve.report.bytes": "count",
    "serve.server_ms_p50": "ms",
    "serve.transport_ms_p50": "ms",
    "serve.scheduler_ms_p50": "ms",
    "serve.pool.hit_ratio": "ratio",
    "serve.pool.hits": "count",
    "serve.pool.misses": "count",
    "loadgen.lag_ms_max": "ms",
    "loadgen.behind": "count",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "suite.load_s": "s",
    "compile.codegen_s": "s",
    "compile.functions": "count",
    "compile.fallback_functions": "count",
    "compile.exec_s": "s",
    "profiles.store_s": "s",
    **{f"experiments.{name}_s": "s" for name in EXPERIMENT_NAMES},
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}

#: End-to-end metrics every untraced run prints.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "goodput_rps": "req/s",
    "wall_s": "s",
}

#: How many times a run sets up before it reports the median set-up.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad argument)."""


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond
    it; 100 (the maximum) when there are too few samples for any."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 100.0


def peak_rss_mb(rusage) -> float:
    """``ru_maxrss`` (KiB on Linux) in MB."""
    return rusage.ru_maxrss * 1024 / 1e6


@dataclass
class Layers:
    """Per-layer totals for one traced run: seconds and counts."""

    values: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    def time(self, name: str, call: Callable[[], T]) -> T:
        """Run ``call``, adding its wall time to layer ``name``."""
        clock = time.perf_counter()
        result = call()
        self.add(name, time.perf_counter() - clock)
        return result


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


class WorkArea:
    """A scratch directory inside the checkout, removed on close.

    Every cache, log and temporary file of a run lives here, so the
    run touches nothing outside its checkout and leaves nothing behind.
    """

    def __init__(self, root: str, label: str) -> None:
        self.path = os.path.join(root, ".perfbench-work", f"{label}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._count = 0

    def fresh_dir(self, prefix: str) -> str:
        self._count += 1
        path = os.path.join(self.path, f"{prefix}{self._count}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass


#: Program settings a run leaves at their defaults whatever the caller's
#: environment says.
_DEFAULTED_KNOBS = (
    "REPRO_ACCESS_LOG_DIR", "REPRO_ANALYSIS_CACHE", "REPRO_ATTRIBUTION_CACHE",
    "REPRO_BACKEND", "REPRO_CACHE", "REPRO_CODEGEN_CACHE", "REPRO_JOBS",
    "REPRO_LEDGER_DIR", "REPRO_PROFILE_FILE", "REPRO_QUIET", "REPRO_STATS_FILE",
    "REPRO_TRACE", "REPRO_TRACE_FILE",
)


def program_env(src_dir: str, cache_dir: str, **extra: str) -> dict[str, str]:
    """Environment for a child running the program: its sources on the
    path, every cache and the ledger pointed into ``cache_dir``."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=src_dir,
        REPRO_CACHE_DIR=cache_dir,
        REPRO_CODEGEN_CACHE_DIR=os.path.join(cache_dir, "codegen"),
        REPRO_ANALYSIS_CACHE_DIR=os.path.join(cache_dir, "analysis"),
        REPRO_ATTRIBUTION_CACHE_DIR=os.path.join(cache_dir, "attribution"),
        XDG_CACHE_HOME=cache_dir,
        TMPDIR=cache_dir,
        REPRO_LEDGER="0",
    )
    for name in _DEFAULTED_KNOBS:
        env.pop(name, None)
    env.update(extra)
    return env


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
