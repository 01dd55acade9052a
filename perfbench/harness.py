"""Set-up, closed-loop queries, correctness gate and metrics.

One client thread (the caller) sends sequential queries through
``runner.run_inference`` over one TCP connection on 127.0.0.1; a server
thread in the same process answers with ``runner.serve_connection``. Both
ends talk through a ``TimedChannel``, which timestamps every ``send`` and
``recv``: the client's time blocked in ``recv`` is its waiting time, and the
server's time from a frame's arrival to its next ``recv`` is its busy time.
Every query is checked against ``pinfer.reference``, and the ciphertexts
counted in each frame on the wire against the closed-form plan.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

from pinfer import numutil, paillier, runner, wire

from perfbench.tracing import Tracer, span_cost_s
from perfbench.workloads import WORKLOADS, Workload

# Bound before a tracer patches ``wire.unframe``, so that the gate's own
# parsing of the frames records no spans.
_unframe = wire.unframe

PRODUCTION_KEY_BITS = 2048
#: Full set-ups per run; set-up time is their median.
SETUPS_PER_RUN = 3
KEY_SEED = "keys:0"
JOIN_TIMEOUT_S = 60.0


class TimedChannel:
    """Channel wrapper that timestamps ``send`` and ``recv``.

    A frame counts as sent when it is handed to the socket, and as arrived
    when ``recv`` returns it. ``take_busy`` returns and resets the summed
    time from each arrival to the last send before the next ``recv``: for
    the server, from a frame's arrival to its last reply sent. ``wait_s``
    sums the time from that last send (or from entering ``recv``, if
    nothing was sent) to the next arrival: for the client, the time spent
    waiting for the server. Waiting starts at the send because a thread
    returning from ``sendall`` may first wait for the interpreter lock,
    which its peer holds while it computes the reply. ``frames`` keeps every
    frame sent or received, as ``(direction, data)``, until the caller
    clears it.
    """

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self._arrived: float | None = None
        self._sent: float | None = None
        self._busy_s = 0.0
        self.wait_s = 0.0
        self.frames: list[tuple[str, bytes]] = []
        #: Set while the owning thread is blocked in (or about to enter) recv.
        self.idle = threading.Event()

    def send(self, data: bytes) -> None:
        self._sent = time.perf_counter()
        self.frames.append(("up", data))
        self._inner.send(data)

    def recv(self) -> bytes:
        wait_from = time.perf_counter()
        with self._lock:
            if self._sent is not None and (self._arrived is None or self._sent >= self._arrived):
                if self._arrived is not None:
                    self._busy_s += self._sent - self._arrived
                wait_from = self._sent
        self.idle.set()
        try:
            data = self._inner.recv()
            self.frames.append(("down", data))
            return data
        finally:
            arrived = time.perf_counter()
            self.idle.clear()
            with self._lock:
                self._arrived = arrived
            self.wait_s += arrived - wait_from

    def take_busy(self) -> float:
        with self._lock:
            busy, self._busy_s = self._busy_s, 0.0
        return busy

    def close(self) -> None:
        self._inner.close()


@dataclass
class Session:
    """One set-up: keys, served model and a connected client/server pair."""

    client_keys: tuple
    server_keys: tuple
    loaded: object
    client: TimedChannel
    server: TimedChannel
    thread: threading.Thread
    setup_s: float

    def close(self) -> None:
        self.client.close()
        self.thread.join(JOIN_TIMEOUT_S)
        self.server.close()
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")


def set_up(workload: Workload, seed: int, key_bits: int) -> Session:
    """Key generation, model build, ``prepare_served`` and connect, timed.

    The keys do not depend on ``seed``: the prime search takes a different
    time for every key seed, so one fixed key seed makes every set-up of
    every run do the same work, and the median of a run's set-ups is a
    median of like samples.
    """
    start = time.perf_counter()
    key_rng = random.Random(KEY_SEED)
    client_keys = paillier.keygen(key_bits, key_rng)
    server_keys = paillier.keygen(key_bits, key_rng)
    loaded = workload.build(random.Random(f"{seed}:model"))
    served = runner.prepare_served(workload.protocol, loaded, server_keys, workload.kappa)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client_sock = socket.create_connection(listener.getsockname())
        server_sock, _ = listener.accept()
    # A server thread that died must fail the query, not hang the run.
    client_sock.settimeout(JOIN_TIMEOUT_S)
    client = TimedChannel(runner.SocketChannel(client_sock))
    server = TimedChannel(runner.SocketChannel(server_sock))
    thread = threading.Thread(target=runner.serve_connection, args=(server, served),
                              name="pinfer-server", daemon=True)
    thread.start()
    return Session(client_keys, server_keys, loaded, client, server, thread,
                   time.perf_counter() - start)


@dataclass
class QueryRecord:
    wall_s: float
    wait_s: float
    busy_s: float
    transcript: wire.Transcript
    publish: wire.Transcript
    error: str | None = None
    #: The query raised (as opposed to returning a wrong answer).
    raised: bool = False

    @property
    def client_s(self) -> float:
        return self.wall_s - self.wait_s

    @property
    def bytes(self) -> int:
        return sum(e.byte_count for t in (self.publish, self.transcript) for e in t.entries)

    @property
    def round_trips(self) -> int:
        return self.publish.round_trips + self.transcript.round_trips


def wire_counts(frames, ct_widths) -> list[tuple[str, int]]:
    """(direction, ciphertext parts) of each frame; a part is a ciphertext
    if its length is the serialized width of one of the run's keys."""
    return [(direction, sum(len(part) in ct_widths for part in _unframe(data).parts))
            for direction, data in frames]


def check_query(workload: Workload, session: Session, x, result) -> str | None:
    """The correctness gate; returns why the query failed, or None."""
    expected = workload.expected(session.loaded, x)
    got = workload.observed(result)
    if got != expected:
        return f"oracle mismatch: got {got}, expected {expected}"
    ct_widths = {wire.ciphertext_width(keys[0])
                 for keys in (session.client_keys, session.server_keys)}
    counts = wire_counts(session.client.frames, ct_widths)
    plan = workload.plan(session.loaded)
    if counts != plan:
        return f"ciphertext counts {counts} differ from the plan {plan}"
    return None


def run_query(workload: Workload, session: Session, x) -> QueryRecord:
    record = QueryRecord(0.0, 0.0, 0.0, wire.Transcript(), wire.Transcript())
    for channel in (session.client, session.server):
        channel.frames.clear()
    wait0 = session.client.wait_s
    start = time.perf_counter()
    try:
        result = runner.run_inference(session.client, workload.protocol, x,
                                      session.client_keys, kappa=workload.kappa,
                                      transcript=record.transcript,
                                      publish_transcript=record.publish)
    except Exception as exc:  # the run goes on to report the failure
        record.error = f"{type(exc).__name__}: {exc}"
        record.raised = True
        result = None
    record.wall_s = time.perf_counter() - start
    record.wait_s = session.client.wait_s - wait0
    # The server adds the busy time of its last frame when it re-enters recv.
    if not session.server.idle.wait(JOIN_TIMEOUT_S):
        record.error = record.error or "server did not return to recv"
        record.raised = True
    record.busy_s = session.server.take_busy()
    if record.error is None:
        record.error = check_query(workload, session, x, result)
    return record


def run_queries(workload: Workload, session: Session, inputs: random.Random,
                seconds: float, records: list, tracer: Tracer | None = None) -> None:
    """Closed loop of sequential queries within a window of ``seconds``.

    At least one query runs; each further query starts only if, at the mean
    query time so far, it would end inside the window, so a run does not
    overshoot by a whole 20-second query. Stops early at the first query
    that raised, since the connection's state is then unknown. With a
    tracer, each query is a root span and its spans carry the query's index
    in ``records``.
    """
    start = time.perf_counter()
    count = 0
    while True:
        x = workload.draw_input(inputs)
        if tracer is None:
            record = run_query(workload, session, x)
        else:
            tracer.query = len(records)
            span = tracer.begin("runner.query")
            try:
                record = run_query(workload, session, x)
            finally:
                tracer.end(span)
                tracer.query = None
        records.append(record)
        count += 1
        if record.raised:
            return
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return


@dataclass
class Report:
    setups_s: list[float]
    records: list[QueryRecord]
    params: dict
    #: name -> (value, unit); filled only when every query passed.
    metrics: dict = field(default_factory=dict)
    #: Index in ``records`` of the first traced query.
    traced_from: int | None = None
    spans_written: int | None = None
    #: Traced minus untraced median query time, printed beside the metrics.
    trace_minus_untraced_s: float | None = None

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        key_bits: int = PRODUCTION_KEY_BITS, spans_path: str | None = None) -> Report:
    """One benchmark run.

    Untraced, it sets up ``SETUPS_PER_RUN`` times and fills the end-to-end
    metrics.
    Traced, it sets up once with tracing on, runs untraced queries for the
    first half of ``seconds`` and traced ones for the second half, and
    fills the per-layer metrics.
    """
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    # Set-up time is an end-to-end metric, so a traced run sets up only once.
    extra_setups = 0 if trace else SETUPS_PER_RUN - 1
    setups_s = []
    for _ in range(extra_setups):
        session = set_up(workload, seed, key_bits)
        setups_s.append(session.setup_s)
        session.close()
    if tracer:
        tracer.install()
    try:
        session = set_up(workload, seed, key_bits)
    finally:
        if tracer:
            tracer.uninstall()
    setups_s.append(session.setup_s)
    report = Report(setups_s, [], _params(workload, session, key_bits, seed))
    inputs = random.Random(f"{seed}:inputs")
    try:
        if not trace:
            run_queries(workload, session, inputs, seconds, report.records)
        else:
            run_queries(workload, session, inputs, seconds / 2, report.records)
            report.traced_from = len(report.records)
            if report.correct:
                tracer.nsq_moduli = {session.client_keys[0].n_squared,
                                     session.server_keys[0].n_squared}
                tracer.install()
                try:
                    run_queries(workload, session, inputs, seconds / 2,
                                report.records, tracer)
                finally:
                    tracer.uninstall()
    finally:
        session.close()
    report.params.update(attempted=report.attempted, failed=report.failed)
    if not report.correct:
        return report
    if trace:
        report.metrics = _per_layer(workload, session, report, tracer)
        traced = report.records[report.traced_from:]
        untraced = report.records[:report.traced_from]
        report.trace_minus_untraced_s = (
            statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in untraced))
        if spans_path:
            report.spans_written = tracer.write(spans_path)
    else:
        report.metrics = _end_to_end(report)
    return report


def _params(workload: Workload, session: Session, key_bits: int, seed: int) -> dict:
    return {
        "key_bits": key_bits, "protocol": workload.protocol, "d": workload.d,
        "precision": workload.precision, "ell_per_layer": workload.ells(session.loaded),
        "kappa": workload.kappa, "seed": seed,
    }


def environment() -> dict:
    return {"python": platform.python_version(), "have_gmpy2": numutil.HAVE_GMPY2,
            "nproc": os.cpu_count()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(report: Report) -> dict:
    records = report.records
    return {
        "setup_s": (statistics.median(report.setups_s), "s"),
        "query_s.p50": (statistics.median(r.wall_s for r in records), "s"),
        "client_s.p50": (statistics.median(r.client_s for r in records), "s"),
        "server_s.p50": (statistics.median(r.busy_s for r in records), "s"),
        "bytes_per_query": (statistics.fmean(r.bytes for r in records), "bytes"),
        "round_trips_per_query": (statistics.fmean(r.round_trips for r in records), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


#: Per-layer span metrics: (party, span name, fields). Every name is
#: reported on every workload, as zero where the workload never calls it.
PAILLIER_OPS = ("encrypt", "decrypt", "rerandomize", "scalar_full", "scalar_short",
                "linear", "powmod.nsq", "powmod.half")
NETWORK_LAYERS = 3


def span_metric_keys():
    for party in ("client", "server"):
        for op in PAILLIER_OPS:
            yield party, f"paillier.{op}", ("count", "ms")
        for op in ("evaluator_respond", "bit_owner_finish"):
            yield party, f"comparison.{op}", ("count", "ms", "self_ms")
        for layer in range(NETWORK_LAYERS):
            yield party, f"network.layer{layer}", ("ms", "self_ms")
        for op in ("encode", "decode"):
            yield party, f"wire.{op}", ("count", "ms")
    yield "client", "stage.request", ("ms",)
    yield "server", "stage.respond", ("ms",)
    yield "client", "stage.finish", ("ms",)
    yield "client", "runner.fetch_published", ("count", "ms")
    yield "setup", "paillier.keygen", ("ms",)
    yield "setup", "linear.regr_dual_publish", ("ms",)


_UNITS = {"count": "count", "ms": "ms", "self_ms": "ms"}
_FIELD = {"count": 0, "ms": 1, "self_ms": 2}


def _per_layer(workload: Workload, session: Session, report: Report, tracer: Tracer) -> dict:
    traced = report.records[report.traced_from:]
    n = len(traced)
    totals = tracer.totals(range(report.traced_from, report.attempted))
    metrics = {}
    for party, name, fields in span_metric_keys():
        row = totals.get((party, name), [0, 0.0, 0.0])
        for f in fields:
            value = row[_FIELD[f]]
            if party != "setup":
                value /= n
            metrics[f"{party}.{name}.{f}"] = (value, _UNITS[f])
    entries = [e for r in traced for e in r.transcript.entries]
    for direction in ("up", "down"):
        metrics[f"wire.bytes_{direction}"] = (
            sum(e.byte_count for e in entries if e.direction == direction) / n, "bytes")
        metrics[f"wire.cts_{direction}"] = (
            sum(e.ciphertext_count for e in entries if e.direction == direction) / n, "count")
    metrics["wire.publish_bytes"] = (
        statistics.fmean(sum(e.byte_count for e in r.publish.entries) for r in traced), "bytes")
    wait = statistics.fmean(r.wait_s for r in traced) * 1e3
    busy = statistics.fmean(r.busy_s for r in traced) * 1e3
    metrics["client.runner.wait_ms"] = (wait, "ms")
    metrics["server.runner.busy_ms"] = (busy, "ms")
    metrics["runner.transit_ms"] = (wait - busy, "ms")
    needed = workload.client_decrypts(session.loaded)
    metrics["waste.client.extra_decrypts"] = (
        metrics["client.paillier.decrypt.count"][0] - needed, "count")
    metrics["trace.query_s.p50"] = (statistics.median(r.wall_s for r in traced), "s")
    spans = sum(row[0] for (party, _), row in totals.items() if party != "setup")
    metrics["trace.spans"] = (spans / n, "count")
    metrics["trace.overhead_ms"] = (spans / n * span_cost_s() * 1e3, "ms")
    return metrics
