"""``serve-warm`` and ``serve-edit``: the ``repro serve`` daemon under load.

The daemon runs as a subprocess with default settings and is warmed
with the 14 base sources.  This process is the load generator: at most
:data:`CLIENTS` threads, each with one keep-alive connection.

* ``serve-warm``: :data:`WARM_ROUNDS` rounds of an open loop at
  :data:`OPEN_RATE` requests/s of exact repeats (latency timed from each
  request's due time), then a closed loop of more repeats.  Every
  request is a pool hit.
* ``serve-edit``: :data:`EDIT_ROUNDS` rounds of a closed loop of
  one-literal edits of the warm sources from :data:`EDIT_CLIENTS`
  client.  Every request is a pool miss on a near-duplicate.

Outside the timed window every distinct response, less its ``server``
block, must equal an in-process ``build_report`` of the same source.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from common import (
    SETUP_REPEATS,
    Layers,
    Outcome,
    log,
    median,
    peak_rss_mb,
    percentile,
    tail_percentile,
)
from inputs import Source, base_sources, edit_stream, repeat_stream
from pipeline import analyze, analyze_layered, encode

#: Generator threads, one keep-alive connection each.
CLIENTS = 2
#: ``serve-edit`` sends from one client, so the daemon parses one
#: source at a time.  Parses that overlap on its worker threads can
#: number AST nodes wrongly (``repro.frontend.ast_nodes`` keeps one
#: module-global node counter that every parse resets), which makes
#: responses differ from the in-process report.
EDIT_CLIENTS = 1

#: ``serve-warm`` open loop: offered rate and share of the run time.
OPEN_RATE = 60.0
OPEN_SHARE = 0.5
#: ``serve-warm`` closed-loop requests per run second.
WARM_CLOSED_PER_SECOND = 150
#: ``serve-warm`` alternates its open and closed loops in this many rounds.
WARM_ROUNDS = 8
#: ``serve-edit`` sends its edits in this many rounds.
EDIT_ROUNDS = 4
#: ``serve-edit`` closed-loop requests per run second.  One client gets
#: 20 to 30 answers a second on a 2-core machine, so the edits take
#: about half the run and the output check's in-process references
#: most of the rest.
EDITS_PER_SECOND = 15

#: Latency limits: a response slower than this misses goodput.
LATENCY_LIMIT_MS = {"serve-warm": 50.0, "serve-edit": 1000.0}

#: An open loop whose sends ran this late behind schedule fell behind.
BEHIND_MS = 50.0

_READY = re.compile(r"serving on http://([^:\s]+):(\d+)")


@dataclass
class Sample:
    """One request as the generator saw it."""

    source: Source
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        """From due time (open loop) or send (closed loop, due == sent)."""
        return (self.done - self.due) * 1000.0


class Daemon:
    """One ``repro serve --port 0`` subprocess."""

    def __init__(self, ctx) -> None:
        directory = ctx.work.fresh_dir("serve")
        self._log = open(os.path.join(directory, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=directory,
            env=ctx.child_env(directory),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.host, self.port = self._await_ready(timeout=60.0)

    def _await_ready(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _READY.search(buffered.decode("utf-8", "replace"))
                if match:
                    return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError(f"daemon did not become ready: {buffered[-500:]!r}")

    def stop(self, timeout: float = 30.0):
        """SIGTERM, wait for the drain; returns the daemon's rusage."""
        rusage = None
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, rusage = os.wait4(self.proc.pid, 0)
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                time.sleep(0.02)
        self.proc.stdout.close()
        self._log.close()
        return rusage

    def metrics(self) -> dict[str, float]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        values = {}
        for line in text.splitlines():
            if line.startswith("repro_serve_pool_") and " " in line:
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values


class Client:
    """One keep-alive connection to the daemon.

    Not ``repro.serve.ServeClient``: the load generator must not change
    with the program it measures, and it leaves response parsing to the
    checks after the timed window.
    """

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._connection: Optional[http.client.HTTPConnection] = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(*self._address, timeout=60)
        try:
            self._connection.request(
                "POST", "/v1/analyze", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def request_body(source: Source) -> bytes:
    return json.dumps({"source": source.text, "name": source.name}).encode("utf-8")


def drive(daemon: Daemon, sources: list[Source], rate: Optional[float],
          clients: int) -> list[Sample]:
    """Send ``sources`` from ``clients`` threads; client ``c`` sends
    requests ``c``, ``c + clients``, ...  With ``rate``, request ``i``
    is due ``i / rate`` seconds after the start (open loop); without,
    each client sends as soon as its last reply is in (closed loop).
    """
    bodies = [request_body(source) for source in sources]
    samples: list[Optional[Sample]] = [None] * len(sources)
    start = time.perf_counter() + 0.01

    def client_main(first: int) -> None:
        client = Client(daemon.host, daemon.port)
        try:
            for index in range(first, len(bodies), clients):
                due = None
                if rate is not None:
                    due = start + index / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.perf_counter()
                status, body = client.post(bodies[index])
                samples[index] = Sample(
                    sources[index], sent if due is None else due, sent,
                    time.perf_counter(), status, body,
                )
        finally:
            client.close()

    threads = [threading.Thread(target=client_main, args=(first,)) for first in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if any(thread.is_alive() for thread in threads) or None in samples:
        raise RuntimeError("load generator did not finish")
    return samples  # type: ignore[return-value]


def warm(daemon: Daemon) -> None:
    client = Client(daemon.host, daemon.port)
    try:
        for source in base_sources():
            status, body = client.post(request_body(source))
            if status != 200:
                raise RuntimeError(f"warm-up of {source.name} got {status}: {body[:300]!r}")
    finally:
        client.close()


def start_warm(ctx) -> tuple[Daemon, float]:
    clock = time.perf_counter()
    daemon = Daemon(ctx)
    try:
        warm(daemon)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - clock


def set_up(ctx) -> tuple[Daemon, float]:
    """Start and warm the daemon :data:`SETUP_REPEATS` times; keep the
    last one running and report the median set-up time."""
    times = []
    for attempt in range(SETUP_REPEATS):
        daemon, seconds = start_warm(ctx)
        times.append(seconds)
        if attempt < SETUP_REPEATS - 1:
            daemon.stop()
    return daemon, median(times)


def reference(source: Source) -> dict:
    return json.loads(analyze(source.text, source.name))


def split_server(sample: Sample) -> tuple[Optional[dict], dict]:
    """A 200 response's payload without its ``server`` block, and that
    block; ``(None, {})`` for anything else."""
    if sample.status != 200:
        return None, {}
    try:
        payload = json.loads(sample.body)
    except ValueError:
        return None, {}
    return payload, payload.pop("server", {})


def check(samples: list[Sample], references: dict[tuple[str, str], dict]) -> list[bool]:
    """Whether each response equals the in-process report of its source
    (computed once per distinct source, outside the timed window)."""
    correct = []
    for sample in samples:
        key = (sample.source.name, sample.source.text)
        if key not in references:
            references[key] = reference(sample.source)
        correct.append(split_server(sample)[0] == references[key])
    return correct


@dataclass
class Round:
    """One round of traffic: an open-loop phase, then a closed-loop one."""

    open_sources: list[Source]
    closed_sources: list[Source]
    clients: int


@dataclass
class Measured:
    """What one round sent and got back."""

    opened: list[Sample]
    closed: list[Sample]

    @property
    def samples(self) -> list[Sample]:
        return self.opened + self.closed

    @property
    def wall(self) -> float:
        samples = self.samples
        return max(s.done for s in samples) - min(s.due for s in samples)


def plan(ctx, stream_number: int) -> list[Round]:
    """The traffic of measured pass ``stream_number`` (0 untraced, 1
    traced).  Counts are whole rounds over the 14 base programs."""
    programs = len(base_sources())
    if ctx.workload == "serve-warm":
        opened = max(1, round(OPEN_RATE * ctx.seconds * OPEN_SHARE / programs / WARM_ROUNDS))
        closed = max(1, round(WARM_CLOSED_PER_SECOND * ctx.seconds / programs / WARM_ROUNDS))
        rounds = []
        for number in range(WARM_ROUNDS):
            seed = (ctx.seed, stream_number, number)
            rounds.append(Round(repeat_stream(f"open/{seed}", opened, CLIENTS),
                                repeat_stream(f"closed/{seed}", closed, CLIENTS), CLIENTS))
        return rounds
    edits = max(1, round(EDITS_PER_SECOND * ctx.seconds / programs / EDIT_ROUNDS))
    rounds = []
    for number in range(EDIT_ROUNDS):
        first = (stream_number * EDIT_ROUNDS + number) * edits * programs
        rounds.append(Round([], edit_stream(ctx.seed, edits, first=first), EDIT_CLIENTS))
    return rounds


def measure(daemon: Daemon, rounds: list[Round]) -> tuple[list[Measured], float]:
    """Send every round; returns what each got and the total wall time."""
    clock = time.perf_counter()
    measured = []
    for part in rounds:
        opened = drive(daemon, part.open_sources, OPEN_RATE, part.clients) if part.open_sources else []
        measured.append(Measured(opened, drive(daemon, part.closed_sources, None, part.clients)))
    return measured, time.perf_counter() - clock


def end_to_end(ctx, setup_s, rusage, measured: list[Measured], correct: list[bool]) -> dict:
    """Each figure is a median over rounds, so a stall shorter than a
    round moves one sample of it, not the figure.  Every round sends
    each base program equally often, so rates over a round do not
    depend on the order the seed gives its requests."""
    limit_ms = LATENCY_LIMIT_MS[ctx.workload]
    p50, tail, goodput, lines = [], [], [], []
    offset = 0
    for part in measured:
        latencies = [s.latency_ms for s in (part.opened or part.closed)]
        p50.append(percentile(latencies, 50))
        tail.append(percentile(latencies, tail_percentile(len(latencies))))
        ok = correct[offset + len(part.opened):offset + len(part.samples)]
        offset += len(part.samples)
        good = [1.0 if fine and s.latency_ms <= limit_ms else 0.0 for s, fine in zip(part.closed, ok)]
        answered = [s.source.lines if s.status == 200 else 0 for s in part.closed]
        wall = max(s.done for s in part.closed) - min(s.sent for s in part.closed)
        goodput.append(sum(good) / wall)
        lines.append(sum(answered) / wall)
    log(f"{ctx.workload}: per-round p50 ms {[round(v, 2) for v in p50]}, "
        f"tail ms {[round(v, 2) for v in tail]}, goodput/s {[round(v, 1) for v in goodput]}")
    return {
        "setup_s": setup_s,
        "lines_per_s": median(lines),
        "peak_rss_mb": peak_rss_mb(rusage),
        "latency_p50_ms": median(p50),
        "latency_tail_ms": median(tail),
        "goodput_rps": median(goodput),
        "wall_s": median([part.wall for part in measured]),
    }


def lag_ms(measured: list[Measured]) -> float:
    """How late the open loops sent their latest request, in ms."""
    return max(((s.sent - s.due) * 1000.0 for part in measured for s in part.opened), default=0.0)


def run(ctx) -> Outcome:
    daemon, setup_s = start_warm(ctx) if ctx.trace else set_up(ctx)
    rounds = plan(ctx, 0)
    try:
        measured, load_wall = measure(daemon, rounds)
        if ctx.trace:
            before = daemon.metrics()
            traced, traced_wall = measure(daemon, plan(ctx, 1))
            after = daemon.metrics()
    finally:
        rusage = daemon.stop()
    samples = [sample for part in measured for sample in part.samples]
    correct = check(samples, {})
    first = measured[0]
    timed = first.opened or first.closed
    notes = [f"{len(measured)} round(s) of {len(first.opened)} open-loop + {len(first.closed)} "
             f"closed-loop requests from {rounds[0].clients} client(s); tail percentile "
             f"p{tail_percentile(len(timed)):g} of {len(timed)} per round"]
    if first.opened:
        notes.append(f"open loop at {OPEN_RATE:g}/s, generator lag max {lag_ms(measured):.2f} ms")
        if lag_ms(measured) > BEHIND_MS:
            notes.append(f"WARNING: generator fell behind schedule by {lag_ms(measured):.1f} ms")
    if not ctx.trace:
        metrics = end_to_end(ctx, setup_s, rusage, measured, correct)
        return Outcome(len(correct), correct.count(False), metrics, notes)

    layers = Layers()
    traced_correct = replay([sample for part in traced for sample in part.samples], layers)
    pool = {}
    for kind in ("hits", "misses"):
        name = f"repro_serve_pool_{kind}_total"
        pool[kind] = after.get(name, 0.0) - before.get(name, 0.0)
        layers.add(f"serve.pool.{kind}", pool[kind])
    lookups = pool["hits"] + pool["misses"]
    layers.add("serve.pool.hit_ratio", pool["hits"] / lookups if lookups else 0.0)
    layers.add("loadgen.lag_ms_max", lag_ms(traced))
    layers.add("loadgen.behind", 1.0 if lag_ms(traced) > BEHIND_MS else 0.0)
    layers.add("loadgen.sent", len(traced_correct))
    layers.add("loadgen.ok", traced_correct.count(True))
    layers.add("loadgen.failed", traced_correct.count(False))
    layers.add("trace.overhead_ratio", traced_wall / load_wall)
    correct += traced_correct
    layers.add("error_rate", correct.count(False) / len(correct))
    return Outcome(len(correct), correct.count(False), layers.values, notes)


def replay(samples: list[Sample], layers: Layers) -> list[bool]:
    """The traced pass's layer figures and output check.

    Each request is replayed in process through ``SessionPool.get`` +
    ``build_report`` (the daemon's worker-thread work), warmed like the
    daemon; ``server_ms`` minus that replay is the scheduler's share.
    A replayed miss is analyzed once more layer by layer, so edits
    report frontend to encoding; on hits the frontend is idle and only
    the report build and encoding run.
    """
    from repro.serve.pool import SessionPool
    from repro.serve.report import build_report

    pool = SessionPool()
    for source in base_sources():
        build_report(pool.get(source.text, source.name)[0], name=source.name)
    server_ms, transport_ms, scheduler_ms, correct = [], [], [], []
    for sample in samples:
        payload, server = split_server(sample)
        clock = time.perf_counter()
        session, hit = pool.get(sample.source.text, sample.source.name)
        got = time.perf_counter()
        report = build_report(session, name=sample.source.name)
        built = time.perf_counter()
        replay_ms = (built - clock) * 1000.0
        if hit:
            layers.add("serve.report.build_s", built - got)
            body = layers.time("serve.report.encode_s", lambda: encode(report))
            layers.add("serve.report.bytes", len(body))
        else:
            body = analyze_layered(sample.source.text, sample.source.name, layers)
        correct.append(payload == json.loads(body))
        if "elapsed_ms" in server:
            server_ms.append(server["elapsed_ms"])
            transport_ms.append((sample.done - sample.sent) * 1000.0 - server["elapsed_ms"])
            scheduler_ms.append(server["elapsed_ms"] - replay_ms)
    layers.add("serve.server_ms_p50", median(server_ms))
    layers.add("serve.transport_ms_p50", median(transport_ms))
    layers.add("serve.scheduler_ms_p50", median(scheduler_ms))
    return correct
