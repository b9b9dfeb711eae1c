"""The three closed-loop workloads: seeded inputs, drivers, output checks.

Each caller sends its next request only after the previous reply.
Inputs are generated from the seed before timing; outputs are kept and
checked after it, so checking costs nothing inside the timed window.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.client import NinfClient
from repro.libs.ep import ep_kernel
from repro.libs.linpack import linpack_solve
from repro.metaserver import MetaClient
from repro.protocol.errors import RemoteError, ServerBusy

from procs import BenchFailure

BATCH = 32          # calls per batch (small_call) / slices per batch (EP)
DMMUL_N = 8
DMMUL_INPUTS = 256
LINPACK_N = 600
EP_M = 17
EP_JITTER = 1024    # pairs a seeded slice boundary may move


class Spans:
    """The benchmark's own spans, kept in memory and saved at the end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: list[dict] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, trace: int = 0,
            parent: int = 0, **attrs) -> int:
        if not self.enabled:
            return 0
        with self._lock:
            span_id = next(self._ids)
            self.rows.append(dict(name=name, span_id=span_id, trace_id=trace,
                                  parent=parent, start=start, end=end,
                                  **attrs))
        return span_id


@dataclass
class Log:
    """What one generator thread saw; merged across threads afterwards."""

    latencies: list[float] = field(default_factory=list)
    batches: list[float] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0           # RESULT received (correct or not)
    busy: int = 0         # BUSY replies (shed/expired)
    errors: int = 0       # ERROR replies
    transport: int = 0    # raised without a server reply
    wrong: int = 0        # RESULT received but the check failed
    payload_bytes: int = 0
    # Traced runs only: (client latency, JobTimestamps) per replied call.
    server: list = field(default_factory=list)
    picks: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    error_text: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.busy + self.errors + self.transport + self.wrong

    def merge(self, other: "Log") -> None:
        for name, value in vars(other).items():
            mine = getattr(self, name)
            if isinstance(value, list):
                mine.extend(value)
            else:
                setattr(self, name, mine + value)

    def failure(self, exc: Exception) -> None:
        if isinstance(exc, ServerBusy):
            self.busy += 1
        elif isinstance(exc, RemoteError):
            self.errors += 1
        else:
            self.transport += 1
        if len(self.error_text) < 5:
            self.error_text.append(repr(exc))


def _trace(spans: Spans, log: Log, name: str, start: float, end: float,
           record) -> None:
    """Keep the server's JobTimestamps and record the call's spans."""
    log.server.append((end - start, record.server))
    root = spans.add(name, start, end, trace=record.call_id,
                     function=record.function)
    ts = record.server
    spans.add("server.queue", ts.enqueue, ts.dequeue, trace=record.call_id,
              parent=root, clock="server")
    spans.add("server.service", ts.dequeue, ts.complete,
              trace=record.call_id, parent=root, clock="server")


def _record_of(client: NinfClient, before: int):
    """The CallRecord the client appended for the call just made."""
    if len(client.records) != before + 1:
        raise BenchFailure("NinfClient.records did not grow by one call")
    return client.records[-1]


class DirectCalls:
    """Callers that talk straight to the server, one NinfClient each."""

    threads = 1
    with_metaserver = False
    detached = False   # results come back on the CALL's own round trip

    def kernels(self) -> dict:
        """In-process timings of the library kernel: name -> (fn, prepare)."""
        return {}

    def open(self, cluster) -> list:
        return [NinfClient(*cluster.server.address)
                for _ in range(self.threads)]

    @staticmethod
    def close(sessions: list) -> None:
        for client in sessions:
            client.close()

    @staticmethod
    def client_of(session) -> NinfClient:
        return session


class SmallCall(DirectCalls):
    """dmmul n=8 from 2 threads, each with its own default NinfClient."""

    name = "small_call"
    threads = 2
    function = "dmmul"
    # The server's dedup cache keeps the last 1024 results and scans
    # them on every call; warm up until it is full, the state a
    # long-running server serves from.
    warmup_batches = 17
    window_batches = 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pairs = [(rng.random((DMMUL_N, DMMUL_N)) - 0.5,
                       rng.random((DMMUL_N, DMMUL_N)) - 0.5)
                      for _ in range(DMMUL_INPUTS)]

    def args(self, index: int = 0) -> tuple:
        a, b = self.pairs[index % DMMUL_INPUTS]
        return (DMMUL_N, a, b, None)

    def outputs(self, index: int = 0) -> list:
        a, b = self.pairs[index % DMMUL_INPUTS]
        return [a @ b]

    def first_reply(self, sessions: list) -> None:
        (c,) = sessions[0].call(self.function, *self.args(0))
        if not np.allclose(c, self.outputs(0)[0], rtol=1e-12, atol=1e-12):
            raise BenchFailure("set-up dmmul reply is wrong")

    def batch(self, client: NinfClient, log: Log, tid: int, counter: list,
              spans: Spans) -> None:
        for _ in range(BATCH):
            index = counter[0] * self.threads + tid
            counter[0] += 1
            log.attempted += 1
            before = len(client.records)
            start = time.perf_counter()
            try:
                (c,) = client.call(self.function, *self.args(index))
            except Exception as exc:  # counted, the loop goes on
                log.failure(exc)
                continue
            end = time.perf_counter()
            record = _record_of(client, before)
            log.ok += 1
            log.latencies.append(end - start)
            log.payload_bytes += record.input_bytes + record.output_bytes
            log.outputs.append((index, c))
            if spans.enabled:
                _trace(spans, log, "bench.call", start, end, record)

    def check(self, log: Log) -> None:
        for index, c in log.outputs:
            if not np.allclose(c, self.outputs(index)[0], rtol=1e-12,
                               atol=1e-12):
                log.wrong += 1


class LinpackLan(DirectCalls):
    """linpack n=600 (A mode_inout: 2.9 MB each way) from one client."""

    name = "linpack_lan"
    function = "linpack"
    warmup_batches = 2
    # 20 calls, so a window's p95 and p99 are different calls.
    window_batches = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.a = rng.random((LINPACK_N, LINPACK_N)) - 0.5
        self.b = rng.random(LINPACK_N) - 0.5

    def args(self, index: int = 0) -> tuple:
        # The call writes the LU factors and the solution back into its
        # mode_inout arguments, so each call gets fresh copies.
        return (LINPACK_N, self.a.copy(), self.b.copy())

    def outputs(self, index: int = 0) -> list:
        a, b = self.a.copy(), self.b.copy()
        x = linpack_solve(a, b)
        return [a, x]

    def kernels(self) -> dict:
        return {"libs.linpack_solve_ms": (
            lambda ab: linpack_solve(*ab),
            lambda: (self.a.copy(), self.b.copy()))}

    def solved(self, x: np.ndarray) -> bool:
        """LINPACK's normalised residual ||Ax - b|| / (n ||A|| ||x|| eps)."""
        residual = np.abs(self.a @ x - self.b).max()
        scale = (LINPACK_N * np.abs(self.a).max() * np.abs(x).max()
                 * np.finfo(np.float64).eps)
        return bool(np.isfinite(residual)) and residual / scale < 100.0

    def first_reply(self, sessions: list) -> None:
        _lu, x = sessions[0].call(self.function, *self.args())
        if not self.solved(x):
            raise BenchFailure("set-up linpack reply is wrong")

    def batch(self, client: NinfClient, log: Log, tid: int, counter: list,
              spans: Spans) -> None:
        args = self.args()
        log.attempted += 1
        before = len(client.records)
        start = time.perf_counter()
        try:
            _lu, x = client.call(self.function, *args)
        except Exception as exc:  # counted, the loop goes on
            log.failure(exc)
            return
        end = time.perf_counter()
        record = _record_of(client, before)
        log.ok += 1
        log.latencies.append(end - start)
        log.payload_bytes += record.input_bytes + record.output_bytes
        log.outputs.append(x)
        if spans.enabled:
            _trace(spans, log, "bench.call", start, end, record)

    def check(self, log: Log) -> None:
        log.wrong += sum(1 for x in log.outputs if not self.solved(x))


class EpFanout:
    """EP m=17 split into 32 seeded slices per batch via the metaserver."""

    name = "ep_fanout"
    threads = 1
    with_metaserver = True
    detached = True    # each slice pays a FETCH round trip to collect it
    function = "ep"
    warmup_batches = 1
    window_batches = 1

    def __init__(self, seed: int):
        rng = random.Random(seed)
        quantum = 2 ** EP_M // BATCH
        self.partitions = []
        for _ in range(256):
            cuts = [0] + [i * quantum + rng.randint(-EP_JITTER, EP_JITTER)
                          for i in range(1, BATCH)] + [2 ** EP_M]
            self.partitions.append([(lo, hi - lo)
                                    for lo, hi in zip(cuts, cuts[1:])])
        self.reference = ep_kernel(EP_M)

    def args(self, index: int = 0) -> tuple:
        skip, pairs = self.partitions[0][index % BATCH]
        return (EP_M, skip, pairs, None, None, None)

    def outputs(self, index: int = 0) -> list:
        skip, pairs = self.partitions[0][index % BATCH]
        result = ep_kernel(EP_M, skip_pairs=skip, pairs=pairs)
        return [result.accepted, result.sx, result.sy]

    def kernels(self) -> dict:
        m, skip, pairs = self.args(0)[:3]
        return {"libs.ep_slice_ms": (
            lambda _: ep_kernel(m, skip_pairs=skip, pairs=pairs), None)}

    def open(self, cluster) -> list:
        meta = MetaClient(*cluster.metaserver.address)
        return [(meta, NinfClient(*cluster.server.address))]

    @staticmethod
    def close(sessions: list) -> None:
        for meta, client in sessions:
            client.close()
            meta.close()

    @staticmethod
    def client_of(session) -> NinfClient:
        return session[1]

    def matches(self, accepted: int, sx: float, sy: float) -> bool:
        ref = self.reference
        return (accepted == ref.accepted
                and abs(sx - ref.sx) <= 1e-9 * abs(ref.sx)
                and abs(sy - ref.sy) <= 1e-9 * abs(ref.sy))

    def first_reply(self, sessions: list) -> None:
        meta, client = sessions[0]
        meta.pick(self.function)
        handle = client.call_detached(self.function, EP_M, 0, 2 ** EP_M,
                                      None, None, None)
        if not self.matches(*client.fetch_detached(handle)):
            raise BenchFailure("set-up ep reply is wrong")

    def batch(self, session, log: Log, tid: int, counter: list,
              spans: Spans) -> None:
        meta, client = session
        parts = self.partitions[counter[0] % len(self.partitions)]
        counter[0] += 1
        want = (client.host, client.port)
        submitted = []
        for skip, pairs in parts:
            log.attempted += 1
            try:
                start = time.perf_counter()
                info = meta.pick(self.function, flops=2.0 * pairs)
                picked = time.perf_counter()
                if (info.host, info.port) != want:
                    raise BenchFailure(f"pick chose {info.host}:{info.port}")
                handle = client.call_detached(self.function, EP_M, skip,
                                              pairs, None, None, None)
            except Exception as exc:  # counted, the batch goes on
                log.failure(exc)
                continue
            submitted.append((picked, handle))
            if spans.enabled:
                log.picks.append(picked - start)
                spans.add("bench.pick", start, picked, function=self.function)
        results = []
        for start, handle in submitted:
            try:
                results.append(client.fetch_detached(handle))
            except Exception as exc:  # counted, the batch goes on
                log.failure(exc)
                continue
            end = time.perf_counter()
            record = handle.record
            log.ok += 1
            log.latencies.append(end - start)
            log.payload_bytes += record.input_bytes + record.output_bytes
            if spans.enabled:
                _trace(spans, log, "bench.slice", start, end, record)
        log.outputs.append((len(parts) - len(results), results))

    def check(self, log: Log) -> None:
        for missing, results in log.outputs:
            if missing or not self.matches(
                    sum(r[0] for r in results), sum(r[1] for r in results),
                    sum(r[2] for r in results)):
                log.wrong += len(results)


WORKLOADS = {w.name: w for w in (SmallCall, LinpackLan, EpFanout)}


def drive(workload, sessions: list, spans: Spans, stop: threading.Event,
          seconds: float = float("inf"),
          batches: int | None = None) -> tuple[Log, float]:
    """Run the closed loop on every session for ``seconds``, or until
    each caller has run ``batches`` batches.

    Returns the merged log and the wall time from start until the last
    caller finished its final batch.
    """
    logs = [Log() for _ in sessions]
    start = time.perf_counter()
    deadline = start + seconds
    limit = batches if batches is not None else float("inf")

    crashed: list[BaseException] = []

    def caller(tid: int) -> None:
        session, log, counter = sessions[tid], logs[tid], [0]
        try:
            while (not stop.is_set() and time.perf_counter() < deadline
                   and len(log.batches) < limit):
                began = time.perf_counter()
                workload.batch(session, log, tid, counter, spans)
                log.batches.append(time.perf_counter() - began)
        except BaseException as exc:  # re-raised on the main thread
            crashed.append(exc)

    threads = [threading.Thread(target=caller, args=(tid,), daemon=True,
                                name=f"caller-{tid}")
               for tid in range(len(sessions))]
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():   # short joins keep signals deliverable
            thread.join(0.2)
    elapsed = time.perf_counter() - start
    if crashed:
        raise BenchFailure(f"a caller thread crashed: {crashed[0]!r}")
    merged = Log()
    for log in logs:
        merged.merge(log)
    return merged, elapsed
