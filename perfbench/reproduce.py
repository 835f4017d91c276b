"""``reproduce``: the paper's whole suite, cold, one process, one job.

Untraced, each measured run is ``repro run all --jobs 1`` in a fresh
process against an empty cache directory: compile and execute the 56
(program, input) pairs with the compiled backend, then render all ten
experiments.  Its stdout must equal the renders pinned in
``tests/golden_outputs.json``.

Traced, the same work runs in this process one public call at a time:
``load_program`` per program, ``compile_program``, ``run_on_input``
per pair, ``store_profile`` per profile, ``run_experiment`` per
experiment.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from common import (
    EXPERIMENT_NAMES,
    SETUP_REPEATS,
    Layers,
    Outcome,
    median,
    peak_rss_mb,
    tail_percentile,
)

#: Cold runs per run second (three ~9.5 s runs at ``--seconds 30``).
RUNS_PER_SECOND = 0.1

#: A run slower than this misses goodput.
LATENCY_LIMIT_S = 60.0

#: Run all's section separator (``repro.experiments.runner.run_all``).
SEPARATOR = "\n\n\n"


def expected_output(root: str) -> str:
    """``run all`` stdout as the golden renders pin it."""
    path = os.path.join(root, "tests", "golden_outputs.json")
    with open(path, encoding="utf-8") as handle:
        renders = json.load(handle)["experiments"]
    return SEPARATOR.join(f"=== {name} ===\n\n{renders[name]}" for name in EXPERIMENT_NAMES) + "\n"


def measure_setup(ctx) -> float:
    """Median time for a fresh ``repro list`` (interpreter start, CLI
    and experiment registry import) to finish."""
    times = []
    for _ in range(SETUP_REPEATS):
        cache = ctx.work.fresh_dir("list")
        clock = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            cwd=cache, env=ctx.child_env(cache),
            capture_output=True, text=True, timeout=120, check=False,
        )
        times.append(time.perf_counter() - clock)
        if done.returncode != 0 or "figure10" not in done.stdout:
            raise RuntimeError(f"repro list failed: {done.stderr[-2000:]}")
    return median(times)


def cold_run_all(ctx) -> tuple[float, float, str]:
    """One cold ``run all --jobs 1``: (seconds, peak RSS MB, stdout)."""
    cache = ctx.work.fresh_dir("runall")
    out_path = os.path.join(cache, "stdout.txt")
    with open(out_path, "wb") as out, open(os.path.join(cache, "stderr.txt"), "wb") as err:
        clock = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "all", "--jobs", "1"],
            cwd=cache, env=ctx.child_env(cache), stdout=out, stderr=err,
        )
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - clock
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as handle:
        stdout = handle.read()
    if proc.returncode != 0:
        stdout = ""
    return seconds, peak_rss_mb(rusage), stdout


def run(ctx) -> Outcome:
    expected = expected_output(ctx.root)
    runs = max(1, round(ctx.seconds * RUNS_PER_SECOND))
    setup_s = 0.0 if ctx.trace else measure_setup(ctx)
    walls, rss, correct = [], [], []
    for _ in range(1 if ctx.trace else runs):
        seconds, peak, stdout = cold_run_all(ctx)
        walls.append(seconds)
        rss.append(peak)
        correct.append(stdout == expected)
    tail = tail_percentile(len(walls))
    notes = [f"{len(walls)} cold runs; tail percentile p{tail:g}"]
    if not ctx.trace:
        lines = suite_lines()
        good = [ok and wall <= LATENCY_LIMIT_S for wall, ok in zip(walls, correct)]
        return Outcome(
            attempted=len(walls),
            failed=correct.count(False),
            metrics={
                "setup_s": setup_s,
                "lines_per_s": median([lines * ok / wall for wall, ok in zip(walls, correct)]),
                "peak_rss_mb": max(rss),
                "latency_p50_ms": median(walls) * 1000,
                "latency_tail_ms": max(walls) * 1000,
                "goodput_rps": median([ok / wall for wall, ok in zip(walls, good)]),
                "wall_s": median(walls),
            },
            notes=notes,
        )
    layers = Layers()
    clock = time.perf_counter()
    output = traced_run_all(ctx, layers)
    layers.add("trace.overhead_ratio", (time.perf_counter() - clock) / walls[0])
    correct.append(output == expected)
    failed = correct.count(False)
    layers.add("error_rate", failed / len(correct))
    return Outcome(attempted=len(correct), failed=failed, metrics=layers.values, notes=notes)


def suite_lines() -> int:
    from repro.suite import program_names, source_line_count

    return sum(source_line_count(name) for name in program_names())


def traced_run_all(ctx, layers: Layers) -> str:
    """``run all`` one layer call at a time, in this process, with the
    environment and empty caches a cold ``run all`` child gets."""
    env = ctx.child_env(ctx.work.fresh_dir("traced"))
    os.environ.clear()
    os.environ.update(env)
    from repro.compile import compile_program
    from repro.experiments.runner import EXPERIMENTS, run_experiment
    from repro.profiles.cache import store_profile
    from repro.suite import load_program, profile_key, program_inputs, program_names, run_on_input

    names = program_names()
    programs = {name: layers.time("suite.load_s", lambda: load_program(name)) for name in names}
    for name, program in programs.items():
        module = layers.time("compile.codegen_s", lambda: compile_program(program))
        layers.add("compile.functions", len(module.factories))
        layers.add("compile.fallback_functions", len(module.fallback))
    for name in names:
        for index, stdin in enumerate(program_inputs(name), start=1):
            result = layers.time(
                "compile.exec_s",
                lambda: run_on_input(name, stdin, f"input{index}", backend="compiled"),
            )
            key = profile_key(name, stdin)
            layers.time("profiles.store_s", lambda: store_profile(key, result.profile))
    sections = []
    for name in EXPERIMENTS:
        text = layers.time(f"experiments.{name}_s", lambda: run_experiment(name))
        sections.append(f"=== {name} ===\n\n{text}")
    return SEPARATOR.join(sections) + "\n"
