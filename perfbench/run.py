"""perfbench: one layered benchmark of the static-estimation system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-edit --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``):

* ``serve-warm``   — ``repro serve`` answering exact repeats (pool hits);
* ``serve-edit``   — ``repro serve`` answering one-literal edits (misses);
* ``reproduce``    — cold ``repro run all --jobs 1``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
untraced measurement, then measures again timing each layer's public
calls, and prints the per-layer metrics.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--record`` also lands the run in the run ledger as a ``bench`` run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import dataclass

from common import END_TO_END, PER_LAYER, BenchError, WorkArea, log, program_env

WORKLOADS = ("serve-warm", "serve-edit", "reproduce")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@dataclass
class Context:
    """Arguments and places one run works with."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    root: str
    src_dir: str
    here: str
    work: WorkArea

    def child_env(self, cache_dir: str, **extra: str) -> dict[str, str]:
        return program_env(self.src_dir, cache_dir, **extra)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="append the run to the run ledger (kind 'bench') when the ledger is enabled",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def locate_program() -> str:
    src_dir = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {src_dir}; run from a full checkout")
    return src_dir


def isolate_in_process(src_dir: str, cache_dir: str) -> None:
    """Point this process's caches into the work area and turn the
    on-disk caches off (a workload that wants them on says so)."""
    os.environ.update(program_env(
        src_dir, cache_dir, REPRO_CACHE="0", REPRO_ANALYSIS_CACHE="0",
        REPRO_CODEGEN_CACHE="0", REPRO_ATTRIBUTION_CACHE="0",
    ))


def record(ctx: Context, ledger_env: dict[str, str], metrics: dict[str, float]) -> None:
    """Land the run as a ``bench`` run: seconds as stages, the rest as
    counters, under the metric names the run printed."""
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(ledger_env)
    try:
        from repro.obs.ledger import record_run

        units = PER_LAYER if ctx.trace else END_TO_END
        run_id = record_run(
            "bench",
            label=f"perfbench:{ctx.workload}:seed{ctx.seed}:trace{int(ctx.trace)}",
            stages={name: value for name, value in metrics.items() if units[name] == "s"},
            counters={name: value for name, value in metrics.items() if units[name] != "s"},
        )
    finally:
        os.environ.clear()
        os.environ.update(saved)
    log(f"ledger run {run_id}" if run_id is not None else "ledger disabled; nothing recorded")


def _terminate(signum, frame):
    # Unwind through every ``finally``, so daemons and children stop.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    try:
        src_dir = locate_program()
    except BenchError as error:
        log(str(error))
        return 2
    sys.path.insert(0, src_dir)
    ledger_env = dict(os.environ)
    work = WorkArea(ROOT, args.workload)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  ROOT, src_dir, HERE, work)
    try:
        isolate_in_process(src_dir, work.fresh_dir("self"))
        outcome = _dispatch(ctx)
    finally:
        work.close()
    units = PER_LAYER if ctx.trace else END_TO_END
    metrics = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    for note in outcome.notes:
        print(f"# {ctx.workload}: {note}")
    error_rate = outcome.failed / outcome.attempted
    print(f"# {ctx.workload}: error_rate {error_rate:.6f} ratio "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:16.6f} {unit}")
    if args.record:
        record(ctx, ledger_env, metrics)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _dispatch(ctx: Context):
    if ctx.workload == "reproduce":
        import reproduce

        return reproduce.run(ctx)
    import serve

    return serve.run(ctx)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
