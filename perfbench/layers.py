"""The traced run's per-layer metrics and the per-call cost ledger.

Nothing inside the program is instrumented.  Layer costs come from:

- in-process timings of each layer's public functions on the
  workload's own payloads (marshal, framing, decode/encode, the
  executor hop, the numerical kernels);
- the server-reported ``JobTimestamps`` of every traced call;
- ``STATS`` counter deltas and ``/proc/<pid>`` CPU of each process.

The ledger subtracts the hops on a call's blocking path from the
client's median latency; what is left is time no hop accounts for.
"""

from __future__ import annotations

import statistics
import time
import uuid

import numpy as np

from repro.protocol.framing import encode_frame
from repro.protocol.marshal import (
    marshal_inputs,
    marshal_outputs,
    unmarshal_inputs,
    unmarshal_outputs,
)
from repro.protocol.messages import CallHeader, JobTimestamps, MessageType
from repro.server import Executor, Registry
from repro.xdr import XdrEncoder

from procs import counter_total, proc_cpu_s

MICRO_BUDGET_S = 0.25   # wall time per in-process timing
MICRO_MAX_REPS = 400

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("client.marshal_ms", "ms"), ("client.unmarshal_ms", "ms"),
    ("client.cpu_ms_per_call", "ms"),
    ("protocol.frame_ms", "ms"), ("protocol.wire_bytes_per_call", "B"),
    ("transport.ping_p50_ms", "ms"), ("transport.ping_p95_ms", "ms"),
    ("transport.frames_per_call", "count"),
    ("transport.conn_reuse_frac", "frac"),
    ("server.decode_ms", "ms"), ("server.encode_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"), ("server.queue_wait_p95_ms", "ms"),
    ("server.service_ms", "ms"), ("server.outside_ms", "ms"),
    ("server.executor_hop_p50_ms", "ms"),
    ("server.executor_hop_p95_ms", "ms"),
    ("server.cpu_ms_per_call", "ms"), ("server.pe_concurrency", "count"),
    ("server.shed", "count"), ("server.expired", "count"),
    ("metaserver.pick_p50_ms", "ms"), ("metaserver.pick_p99_ms", "ms"),
    ("metaserver.cpu_ms_per_pick", "ms"),
    ("libs.linpack_solve_ms", "ms"), ("libs.ep_slice_ms", "ms"),
    ("ledger.base_ms", "ms"), ("ledger.residual_ms", "ms"),
    ("ledger.residual_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("cpu.generator_busy_frac", "frac"), ("cpu.server_busy_frac", "frac"),
    ("cpu.metaserver_busy_frac", "frac"),
    ("host.ref_speed", "M/s"),
)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def timings(fn, prepare=None, budget: float = MICRO_BUDGET_S,
            min_reps: int = 5) -> list[float]:
    """Seconds per call of ``fn(prepare())``; ``prepare`` is untimed."""
    samples: list[float] = []
    stop = time.perf_counter() + budget
    while len(samples) < min_reps or (time.perf_counter() < stop
                                      and len(samples) < MICRO_MAX_REPS):
        arg = prepare() if prepare is not None else None
        start = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - start)
    return samples


def executor_hop(reps: int = 200) -> list[float]:
    """``Executor(num_pes=4).submit`` of a no-op, timed to ``job.done``."""
    registry = Registry()
    noop = registry.register('Define noop(mode_in int n) "no-op";',
                             lambda n: None)
    executor = Executor(num_pes=4)
    try:
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            job = executor.submit(noop, [0])
            if not job.done.wait(5.0):
                raise RuntimeError("executor no-op never completed")
            samples.append(time.perf_counter() - start)
        return samples
    finally:
        executor.shutdown()


def microbench(workload, client) -> dict[str, float]:
    """In-process layer timings on the workload's own payloads, in ms."""
    signature = client.get_signature(workload.function)
    args = list(workload.args(0))
    values = list(args)
    for index, value in zip(signature.output_indices(),
                            workload.outputs(0)):
        values[index] = value
    args_payload = marshal_inputs(signature, args)
    out_payload = marshal_outputs(signature, values)
    enc = XdrEncoder()
    CallHeader(function=workload.function, call_id=1,
               logical_id=uuid.uuid4().hex, attempt=1,
               budget=0.0).encode(enc)
    enc.pack_opaque(args_payload)
    call_payload = enc.getvalue()
    enc = XdrEncoder()
    enc.pack_uhyper(1)
    JobTimestamps(0.0, 0.0, 0.0).encode(enc)
    enc.pack_opaque(out_payload)
    result_payload = enc.getvalue()

    def frame(_):
        encode_frame(MessageType.CALL, call_payload)
        encode_frame(MessageType.RESULT, result_payload)

    ms = {
        "client.marshal_ms": timings(
            lambda a: marshal_inputs(signature, a),
            prepare=lambda: list(workload.args(0))),
        "client.unmarshal_ms": timings(
            lambda _: unmarshal_outputs(signature, out_payload)),
        "protocol.frame_ms": timings(frame),
        "server.decode_ms": timings(
            lambda _: unmarshal_inputs(signature, args_payload)),
        "server.encode_ms": timings(
            lambda _: marshal_outputs(signature, values)),
    }
    out = {name: statistics.median(v) * 1e3 for name, v in ms.items()}
    pings = timings(lambda _: client.ping(), min_reps=50)
    hops = executor_hop()
    out["transport.ping_p50_ms"] = quantile(pings, 0.50) * 1e3
    out["transport.ping_p95_ms"] = quantile(pings, 0.95) * 1e3
    out["server.executor_hop_p50_ms"] = quantile(hops, 0.50) * 1e3
    out["server.executor_hop_p95_ms"] = quantile(hops, 0.95) * 1e3
    # Kernels off the workload's path read 0.
    out["libs.linpack_solve_ms"] = out["libs.ep_slice_ms"] = 0.0
    for name, (fn, prepare) in workload.kernels().items():
        out[name] = statistics.median(
            timings(fn, prepare=prepare, min_reps=3)) * 1e3
    return out


class CpuClock:
    """CPU seconds of the generator and server processes over a window."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.start = self._sample()

    def _sample(self) -> dict[str, float]:
        sample = {"generator": proc_cpu_s("self"),
                  "server": self.cluster.server.cpu_s(),
                  "wall": time.perf_counter()}
        if self.cluster.metaserver is not None:
            sample["metaserver"] = self.cluster.metaserver.cpu_s()
        return sample

    def delta(self) -> dict[str, float]:
        end = self._sample()
        return {key: end[key] - value for key, value in self.start.items()}


def per_layer(workload, traced, traced_s: float, untraced, untraced_s: float,
              stats0: dict, stats1: dict, cpu: dict, pools: list[dict],
              micro: dict) -> tuple[dict[str, float], list[str]]:
    """Assemble every per-layer metric plus the ledger report lines.

    ``traced``/``untraced`` are the two phases' merged logs, ``stats0``/
    ``stats1`` the server's STATS around the traced phase, ``cpu`` the
    CPU-seconds deltas over it and ``pools`` the metrics snapshots of
    the workload's clients.
    """
    calls = traced.ok
    m = dict(micro)

    def delta(name: str, **labels) -> float:
        return (counter_total(stats1, name, **labels)
                - counter_total(stats0, name, **labels))

    latency = [lat for lat, _ts in traced.server]
    waits = [ts.wait for _lat, ts in traced.server]
    services = [ts.service for _lat, ts in traced.server]
    m["client.cpu_ms_per_call"] = cpu["generator"] / calls * 1e3
    m["protocol.wire_bytes_per_call"] = (
        delta("ninf_transport_bytes_sent_total")
        + delta("ninf_transport_bytes_received_total")) / calls
    m["transport.frames_per_call"] = (
        delta("ninf_transport_frames_sent_total")
        + delta("ninf_transport_frames_received_total")) / calls
    created = sum(counter_total(snapshot,
                                "ninf_pool_connections_created_total")
                  for snapshot in pools)
    reused = sum(counter_total(snapshot, "ninf_pool_connections_reused_total")
                 for snapshot in pools)
    m["transport.conn_reuse_frac"] = reused / (created + reused)
    m["server.queue_wait_p50_ms"] = quantile(waits, 0.50) * 1e3
    m["server.queue_wait_p95_ms"] = quantile(waits, 0.95) * 1e3
    m["server.service_ms"] = statistics.median(services) * 1e3
    m["server.outside_ms"] = statistics.median(
        lat - (ts.complete - ts.enqueue) for lat, ts in traced.server) * 1e3
    m["server.cpu_ms_per_call"] = cpu["server"] / calls * 1e3
    m["server.pe_concurrency"] = sum(services) / traced_s
    m["server.shed"] = delta("ninf_server_jobs_shed_total")
    m["server.expired"] = delta("ninf_server_jobs_expired_total")
    if traced.picks:
        m["metaserver.pick_p50_ms"] = quantile(traced.picks, 0.50) * 1e3
        m["metaserver.pick_p99_ms"] = quantile(traced.picks, 0.99) * 1e3
        m["metaserver.cpu_ms_per_pick"] = (cpu["metaserver"]
                                           / len(traced.picks) * 1e3)
    else:
        m["metaserver.pick_p50_ms"] = m["metaserver.pick_p99_ms"] = 0.0
        m["metaserver.cpu_ms_per_pick"] = 0.0

    # The blocking path of one call.  A detached EP slice pays a second
    # round trip for the FETCH that collects it.
    hops = [
        ("client.marshal", m["client.marshal_ms"]),
        ("protocol.frame", m["protocol.frame_ms"]),
        ("transport.ping", m["transport.ping_p50_ms"]),
        ("server.decode", m["server.decode_ms"]),
        ("server.queue_wait", m["server.queue_wait_p50_ms"]),
        ("server.service", m["server.service_ms"]),
        ("server.encode", m["server.encode_ms"]),
        ("client.unmarshal", m["client.unmarshal_ms"]),
    ]
    if workload.detached:
        hops.append(("transport.ping(fetch)", m["transport.ping_p50_ms"]))
    base = statistics.median(latency) * 1e3
    residual = base - sum(ms for _name, ms in hops)
    m["ledger.base_ms"] = base
    m["ledger.residual_ms"] = residual
    m["ledger.residual_frac"] = residual / base
    untraced_cps = (untraced.ok - untraced.wrong) / untraced_s
    traced_cps = (traced.ok - traced.wrong) / traced_s
    m["trace.overhead_frac"] = 1.0 - traced_cps / untraced_cps
    m["cpu.generator_busy_frac"] = cpu["generator"] / cpu["wall"]
    m["cpu.server_busy_frac"] = cpu["server"] / cpu["wall"]
    m["cpu.metaserver_busy_frac"] = (cpu.get("metaserver", 0.0)
                                     / cpu["wall"])

    lines = [f"ledger {workload.name}: base = client p50 {base:.3f} ms "
             f"over {len(latency)} traced calls"]
    lines += [f"  {name:<24} {ms:9.3f} ms" for name, ms in hops]
    lines.append(f"  {'residual':<24} {residual:9.3f} ms "
                 f"({residual / base:.1%} of base)")
    lines.append(f"trace overhead: {m['trace.overhead_frac']:.1%} of "
                 f"untraced calls_per_s ({untraced_cps:.1f} -> "
                 f"{traced_cps:.1f})")
    busy = ", ".join(f"{name} {cpu[name] / cpu['wall']:.2f}"
                     for name in ("generator", "server", "metaserver")
                     if name in cpu)
    lines.append(f"cpu busy (cores): {busy}")
    return m, lines
