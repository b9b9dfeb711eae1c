"""Live Ninf benchmark: one workload, one seed, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small_call --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` splits the time between an untraced and a traced phase
and reports the per-layer metrics and the cost ledger.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import threading
import time

from procs import BenchFailure, Cluster, counter_total

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SEGMENTS = 3         # untraced runs: fresh servers per segment; medians
WALL_CAP_S = 170     # hard cap on one invocation, set-up included
REF_LOOP = 20_000    # iterations of the host-speed reference loop
REF_NOMINAL = 10e6   # reference iterations per second of the nominal CPU

#: (name, unit, exponent of the host-speed scale) of every end-to-end
#: metric, in report order: times are multiplied by the scale, rates
#: divided by it, counts and sizes left alone.
END_TO_END = (
    ("calls_per_s", "1/s", -1), ("latency_p50_ms", "ms", 1),
    ("latency_p95_ms", "ms", 1), ("latency_p99_ms", "ms", 1),
    ("payload_MBps", "MB/s", -1), ("makespan_ms", "ms", 1),
    ("ok_frac", "frac", 0), ("setup_s", "s", 1), ("server_rss_mb", "MB", 0),
)


class Interrupted(BaseException):
    """SIGINT or SIGTERM arrived; unwind through every teardown."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("small_call", "linpack_lan", "ep_fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no Ninf source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    def on_signal(signum, _frame):
        raise Interrupted(signal.Signals(signum).name)

    def on_alarm(_signum, _frame):
        raise BenchFailure(f"wall-clock cap of {WALL_CAP_S} s reached")

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WALL_CAP_S)
    print(f"generator and servers pinned to CPU {pin_one_cpu()}")
    bench = Bench(args)
    try:
        result = bench.run()
    except BenchFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    except Interrupted as exc:
        print(f"benchmark interrupted by {exc}", file=sys.stderr)
        return 130
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        bench.kill_all()
    print(json.dumps(result))
    return 0


def pin_one_cpu() -> int:
    """Run this process, and every server it spawns, on one CPU: the
    one of those allowed that was idlest over the last quarter second.

    On a virtual machine a CPU with nothing to run halts, and waking it
    again costs whatever the host takes to reschedule it: from
    microseconds to milliseconds, varying from minute to minute.  With
    every process on one CPU, each hand-off between the generator and a
    server is a context switch on a CPU that is already running, so
    the host's wake-up latency stays out of the figures.
    """
    def idle_ticks() -> dict[int, int]:
        ticks = {}
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    ticks[int(name[3:])] = int(fields[3])
        return ticks

    allowed = os.sched_getaffinity(0)
    before = idle_ticks()
    time.sleep(0.25)
    after = idle_ticks()
    cpu = max(sorted(allowed),
              key=lambda c: after.get(c, 0) - before.get(c, 0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def ref_speed() -> float:
    """Host speed: reference-loop iterations per second, best of 3.

    The loop is plain interpreted Python, the kind of work that carries
    most of a Ninf call.  Sampled between measured windows, it shows how
    fast the host ran this CPU at the time.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return REF_LOOP / best


class Bench:
    """One invocation: set-ups, the measured phases, every teardown."""

    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.stop = threading.Event()
        self.clusters = []
        # Seeded inputs (and the EP reference) are made before any timing.
        self.workload = WORKLOADS[args.workload](args.seed)

    def kill_all(self) -> None:
        """Last resort on an interrupted teardown: SIGKILL and reap."""
        self.stop.set()
        for cluster in self.clusters:
            for process in cluster.processes:
                if process.proc.poll() is None:
                    process.proc.kill()
                    process.proc.wait()

    def set_up(self):
        """Spawn the servers and get the first correct reply.

        Returns ``(cluster, sessions, seconds)``; on failure everything
        started is torn down before the error propagates.
        """
        cluster = Cluster(SRC, self.workload.with_metaserver)
        self.clusters.append(cluster)
        sessions = []
        start = time.perf_counter()
        try:
            cluster.start()
            sessions = self.workload.open(cluster)
            self.workload.first_reply(sessions)
        except BaseException:
            self.tear_down(cluster, sessions)
            raise
        return cluster, sessions, time.perf_counter() - start

    def tear_down(self, cluster, sessions) -> None:
        try:
            self.workload.close(sessions)
        finally:
            cluster.stop()
        cluster.check_gone()

    def run(self) -> dict:
        if self.args.trace:
            # Each half gets fresh servers: a server keeps every result
            # for minutes, so one linpack server would grow by ~2.9 MB
            # per call for the whole run.
            _setup, plain = self.session(self.untraced)
            return self.session(
                lambda cluster, sessions: self.traced(cluster, sessions,
                                                      *plain))[1]
        return self.summarise([self.session(self.segment)
                               for _ in range(SEGMENTS)])

    def session(self, measure):
        """Set up, warm up, ``measure(cluster, sessions)``, tear down.

        Returns ``(set-up seconds, what measure returned)``.
        """
        cluster, sessions, setup = self.set_up()
        try:
            self.warm_up(sessions)
            result = measure(cluster, sessions)
        except BaseException:
            self.stop.set()   # callers still looping stop at their next batch
            self.tear_down(cluster, sessions)
            raise
        self.tear_down(cluster, sessions)
        return setup, result

    def stats(self, sessions) -> dict:
        return self.workload.client_of(sessions[0]).fetch_stats()

    def warm_up(self, sessions) -> None:
        """Untimed batches that bring the server to its steady state."""
        from workloads import Spans, drive

        log, _ = drive(self.workload, sessions, Spans(False), self.stop,
                       batches=self.workload.warmup_batches)
        self.workload.check(log)
        if log.failed:
            raise BenchFailure(f"{log.failed} warm-up calls failed: "
                               f"{log.error_text!r}")

    def segment(self, cluster, sessions):
        """One measured segment: consecutive closed-loop windows, output
        checks, and the cross-check of the segment against STATS.

        Returns ``(windows, peak RSS)`` with ``(log, seconds, scale)``
        windows.  A window's scale is the host speed over the nominal
        speed, from the reference loop timed just before and just after
        the window.
        """
        from workloads import Log, Spans, drive

        w = self.workload
        before = self.stats(sessions)
        deadline = time.perf_counter() + self.args.seconds / SEGMENTS
        windows = []
        rss = None
        speed = ref_speed()
        while time.perf_counter() < deadline:
            log, elapsed = drive(w, sessions, Spans(False), self.stop,
                                 batches=w.window_batches)
            after_speed = ref_speed()
            w.check(log)
            if not log.latencies:
                raise BenchFailure("a window completed no call: "
                                   + repr(log.error_text))
            windows.append((log, elapsed,
                            (speed + after_speed) / 2.0 / REF_NOMINAL))
            speed = after_speed
            if rss is None:
                # Read after a fixed amount of work, not a fixed time: the
                # server keeps every result for a while, so a peak read at
                # the end would grow with the speed of the server.
                rss = sum(p.peak_rss_mb() for p in cluster.processes)
        after = self.stats(sessions)
        segment = Log()
        for log, _elapsed, _scale in windows:
            segment.merge(log)
        print(cross_check(segment, before, after))
        return windows, rss

    def summarise(self, segments) -> dict:
        """End-to-end metrics.  Rates, the median latency and batch times
        are taken per window, scaled to the nominal CPU with the
        window's own host speed, and reported as the median over every
        window of every segment.  The tail quantiles need more samples
        than a window has: they are taken over every call of the run,
        each scaled with its window's host speed.  Set-up time (scaled
        with the first window of its segment) and peak RSS are medians
        over segments.

        Scaling multiplies a time, and divides a rate, by host speed /
        ``REF_NOMINAL``: a window in which the host ran this CPU 20%
        faster reports what the nominal CPU would have taken, not 20%
        less.
        """
        from layers import quantile
        from workloads import Log

        windows = [window for _, (parts, _rss) in segments
                   for window in parts]
        log = Log()
        for part, _elapsed, _scale in windows:
            log.merge(part)

        def per_window(part, elapsed) -> dict:
            good = part.ok - part.wrong
            return {
                "calls_per_s": good / elapsed,
                "latency_p50_ms": quantile(part.latencies, 0.50) * 1e3,
                "payload_MBps": part.payload_bytes / elapsed / 1e6,
                "makespan_ms": statistics.median(part.batches) * 1e3,
            }

        rows = [(per_window(part, elapsed), scale)
                for part, elapsed, scale in windows]
        setups = [(setup, parts[0][2]) for setup, (parts, _rss) in segments]
        measured, reported = {}, {}
        for name, _unit, power in END_TO_END:
            if name in rows[0][0]:
                pairs = [(row[name], scale) for row, scale in rows]
            elif name == "setup_s":
                pairs = setups
            else:
                continue
            measured[name] = statistics.median(v for v, _s in pairs)
            reported[name] = statistics.median(v * s ** power
                                               for v, s in pairs)
        for name, q in (("latency_p95_ms", 0.95), ("latency_p99_ms", 0.99)):
            measured[name] = quantile(log.latencies, q) * 1e3
            reported[name] = quantile(
                [x * scale for part, _e, scale in windows
                 for x in part.latencies], q) * 1e3
        measured["ok_frac"] = reported["ok_frac"] = (
            (log.attempted - log.failed) / log.attempted)
        measured["server_rss_mb"] = reported["server_rss_mb"] = (
            statistics.median(rss for _, (_w, rss) in segments))

        scales = [scale for _row, scale in rows]
        print(f"{self.workload.name} seed={self.args.seed}: "
              f"{log.attempted} calls attempted, {log.failed} failed; "
              f"{len(windows)} windows in {len(segments)} segments of "
              f"{self.args.seconds / SEGMENTS:.1f} s; p50 over "
              f"{len(log.latencies) / len(windows):.0f} calls per window, "
              f"p95/p99 over all {len(log.latencies)} calls; set-ups (s): "
              + " ".join(f"{setup:.3f}" for setup, _s in setups))
        print(f"host speed / nominal over the windows: median "
              f"{statistics.median(scales):.3f}, range {min(scales):.3f}"
              f"-{max(scales):.3f}; measured and reported (nominal CPU):")
        for name, unit, _power in END_TO_END:
            print(f"  {name:<16} {measured[name]:14.4f} "
                  f"{reported[name]:14.4f} {unit}")
        return report(log, {name: (reported[name], unit)
                            for name, unit, _power in END_TO_END})

    def untraced(self, cluster, sessions):
        """The traced run's untraced half: ``(log, seconds)``."""
        from workloads import Spans, drive

        w = self.workload
        stats0 = self.stats(sessions)
        plain, plain_s = drive(w, sessions, Spans(False), self.stop,
                               seconds=self.args.seconds / 2.0)
        w.check(plain)
        print(cross_check(plain, stats0, self.stats(sessions)))
        if not plain.ok:
            raise BenchFailure("no call completed: "
                               + repr(plain.error_text))
        return plain, plain_s

    def traced(self, cluster, sessions, plain, plain_s) -> dict:
        from layers import PER_LAYER, CpuClock, microbench, per_layer
        from workloads import Log, Spans, drive

        w = self.workload
        stats_mid = self.stats(sessions)
        spans = Spans(True)
        cpu = CpuClock(cluster)
        traced, traced_s = drive(w, sessions, spans, self.stop,
                                 seconds=self.args.seconds / 2.0)
        cpu_used = cpu.delta()
        stats1 = self.stats(sessions)
        speed = statistics.median(ref_speed() for _ in range(9))
        micro = microbench(w, w.client_of(sessions[0]))
        pools = [w.client_of(s).metrics.snapshot() for s in sessions]
        w.check(traced)
        print(cross_check(traced, stats_mid, stats1))
        if not traced.latencies:
            raise BenchFailure("no call completed: "
                               + repr(traced.error_text))
        both = Log()
        both.merge(plain)
        both.merge(traced)
        values, lines = per_layer(w, traced, traced_s, plain, plain_s,
                                  stats_mid, stats1, cpu_used, pools, micro)
        values["host.ref_speed"] = speed / 1e6
        lines.append(f"host speed {speed / 1e6:.2f} M reference "
                     f"iterations/s (per-layer metrics are not scaled)")
        for line in lines:
            print(line)
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {values[name]:14.4f} {unit}")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{w.name}-seed{self.args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for row in spans.rows:
                handle.write(json.dumps(row) + "\n")
        print(f"wrote {len(spans.rows)} spans to "
              f"{os.path.relpath(path, ROOT)}")
        return report(both, {name: (values[name], unit)
                             for name, unit in PER_LAYER})


def cross_check(log, before: dict, after: dict) -> str:
    """DiPerF-style: the harness's counts must equal the server's."""
    def delta(name: str, **labels) -> int:
        return round(counter_total(after, name, **labels)
                     - counter_total(before, name, **labels))

    server = {"ok": delta("ninf_server_calls_total", status="ok"),
              "error": delta("ninf_server_calls_total", status="error"),
              "busy": delta("ninf_server_jobs_shed_total")
              + delta("ninf_server_jobs_expired_total")}
    harness = {"ok": log.ok, "error": log.errors, "busy": log.busy}
    if server != harness:
        raise BenchFailure(f"harness counts {harness} != server STATS "
                           f"deltas {server}")
    return (f"cross-check ok: harness counts equal server STATS deltas "
            f"{server}; {log.transport} transport failures, "
            f"{log.wrong} wrong results")


def report(log, metrics: dict) -> dict:
    return {"correct": log.wrong == 0, "attempted": log.attempted,
            "failed": log.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
