"""Child-process lifecycle for the benchmark: spawn, read, measure, stop.

Every Ninf process the benchmark drives is a shipped CLI
(``repro.cli.server_main`` / ``metaserver_main``) started with
``--port 0`` in its own interpreter.  The CLIs ``print`` their bound
address without flushing, so children run with ``PYTHONUNBUFFERED=1``
and a reader thread drains their merged stdout/stderr into a queue.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

STARTUP_DEADLINE_S = 60.0
STOP_GRACE_S = 5.0
CLK_TCK = os.sysconf("SC_CLK_TCK")

_LAUNCH = ("import sys; from repro.cli import {main}; "
           "sys.exit({main}(sys.argv[1:]))")
_ADDRESS = {
    "server_main": re.compile(r" on (\S+):(\d+) \("),
    "metaserver_main": re.compile(r"^metaserver on (\S+):(\d+) "),
}


class BenchFailure(RuntimeError):
    """The run cannot produce a trustworthy result."""


class CliProcess:
    """One shipped CLI running in its own interpreter."""

    def __init__(self, src_dir: str, main: str, args: list[str]):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
        self.main = main
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self.output: list[str] = []
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCH.format(main=main), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=env)
        self.pid = self.proc.pid
        self._reader = threading.Thread(target=self._drain, daemon=True,
                                        name=f"drain-{main}-{self.pid}")
        self._reader.start()
        self.address: tuple[str, int] | None = None

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def wait_for(self, pattern: re.Pattern, deadline: float) -> re.Match:
        """Block until a line of output matches ``pattern``."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchFailure(f"{self.main} startup deadline passed; "
                                   f"output: {''.join(self.output)!r}")
            try:
                line = self.lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if line is None:
                raise BenchFailure(f"{self.main} exited during startup "
                                   f"(code {self.proc.wait()}): "
                                   f"{''.join(self.output)!r}")
            match = pattern.search(line)
            if match:
                return match

    def wait_started(self, deadline: float) -> tuple[str, int]:
        match = self.wait_for(_ADDRESS[self.main], deadline)
        self.address = (match.group(1), int(match.group(2)))
        return self.address

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchFailure(f"no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_GRACE_S)
        self._reader.join(STOP_GRACE_S)
        self.proc.stdout.close()


def proc_cpu_s(pid: int | str = "self") -> float:
    """utime + stime of a process, in seconds, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


class Cluster:
    """The server processes of one workload, started and stopped as one.

    ``with_metaserver`` starts a ``ninf-metaserver`` first and a
    ``ninf-server --register-with`` it, and waits until the metaserver
    lists the server.
    """

    def __init__(self, src_dir: str, with_metaserver: bool):
        self.src_dir = src_dir
        self.with_metaserver = with_metaserver
        self.server: CliProcess | None = None
        self.metaserver: CliProcess | None = None
        self.ports: set[int] = set()

    @property
    def processes(self) -> list[CliProcess]:
        return [p for p in (self.server, self.metaserver) if p is not None]

    def start(self) -> None:
        deadline = time.monotonic() + STARTUP_DEADLINE_S
        server_args = ["--port", "0"]
        if self.with_metaserver:
            self.metaserver = CliProcess(self.src_dir, "metaserver_main",
                                         ["--port", "0"])
            host, port = self.metaserver.wait_started(deadline)
            self.ports.add(port)
            server_args += ["--register-with", f"{host}:{port}"]
        self.server = CliProcess(self.src_dir, "server_main", server_args)
        self.ports.add(self.server.wait_started(deadline)[1])
        if self.with_metaserver:
            self.server.wait_for(re.compile(r"^registered with metaserver"),
                                 deadline)
            self._await_listing(deadline)

    def _await_listing(self, deadline: float) -> None:
        from repro.metaserver import MetaClient

        want = self.server.address
        with MetaClient(*self.metaserver.address, timeout=10.0) as meta:
            while True:
                if any((s.host, s.port) == want
                       for s in meta.list_servers()):
                    return
                if time.monotonic() > deadline:
                    raise BenchFailure("metaserver never listed the server")
                time.sleep(0.01)

    def stop(self) -> None:
        for process in self.processes:
            process.stop()

    def check_gone(self) -> None:
        """Fail if a child process or one of our listeners outlived stop."""
        leftovers = []
        for process in self.processes:
            if process.proc.poll() is None:
                leftovers.append(f"pid {process.pid} still running")
        leftovers += [f"pid {pid} is still our child" for pid in child_pids()]
        leftovers += [f"port {port} still listening"
                      for port in listening_ports() & self.ports]
        if leftovers:
            raise BenchFailure("teardown left " + ", ".join(leftovers))


def child_pids() -> list[int]:
    """Live processes whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def listening_ports() -> set[int]:
    """Local ports in LISTEN state, from ``/proc/net/tcp{,6}``."""
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    if fields[3] == "0A":
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except OSError:
            continue
    return ports


def counter_total(snapshot: dict, name: str, **labels: str) -> float:
    """Sum a STATS counter family's children matching ``labels``."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    return sum(child["value"] for child in family["values"]
               if all(child["labels"].get(k) == v
                      for k, v in labels.items()))
