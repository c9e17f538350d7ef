"""Node subprocesses, their scratch directories and their resource usage.

A :class:`Fleet` owns every process and directory one workload set-up
creates.  Nodes are ``python -m repro.replication.serve ...`` processes,
each in its own process group on an ephemeral port; ``Fleet.close`` tears
them down (terminate, then kill the group) and removes the directories on
success, exception and ``KeyboardInterrupt`` alike, so a benchmark run
leaves neither processes nor files behind.

A workload with a single client is a ping-pong: the generator and its node
never work at the same time.  Left to the scheduler they land on different
CPUs in some runs, and every one of the ~27 round trips of an ORM
interaction then wakes a halted virtual CPU — measured 123 to 273 ops/s for
the same code.  :func:`pin_single_client` puts both on one CPU (215–270
ops/s); workloads with two clients stay unpinned.

CPU time and peak memory of a node are read from ``/proc/<pid>`` at the
phase boundaries the load generator chooses; the generator's own come from
``resource.getrusage``.
"""

from __future__ import annotations

import os
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = E2E_DIR / "out"

#: The CPUs this process may use, read before anything is pinned.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))

#: How long a node may take to print its ``PORT`` line (recovery of the
#: full-scale snapshot takes about a second).
START_TIMEOUT_S = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class NodeStartError(RuntimeError):
    """A node exited or stalled before announcing its port."""


class Node:
    """One running ``serve`` process."""

    def __init__(self, process: subprocess.Popen) -> None:
        self.process = process
        self.address = ("127.0.0.1", 0)  # the port is filled in once announced

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill9(self) -> None:
        """``kill -9`` the node's process group and reap it."""
        _signal_group(self.process, signal.SIGKILL)
        self.process.wait()


def _signal_group(process: subprocess.Popen, signum: int) -> None:
    try:
        os.killpg(process.pid, signum)
    except ProcessLookupError:
        pass


class Fleet:
    """The processes and scratch directory of one workload set-up."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="fleet-", dir=OUT_DIR))
        self.nodes: list[Node] = []

    def directory(self, name: str) -> str:
        """A fresh sub-directory of the fleet's scratch directory."""
        path = self.root / name
        path.mkdir()
        return str(path)

    def spawn(self, *args: str) -> Node:
        """Start one node and wait for its ``PORT <n>`` line."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC_DIR)
        stderr_path = self.root / f"node{len(self.nodes)}.stderr"
        with open(stderr_path, "wb") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.replication.serve", *args],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=environment,
                process_group=0,
            )
        node = Node(process)
        self.nodes.append(node)
        ready, _, _ = select.select([process.stdout], [], [], START_TIMEOUT_S)
        line = process.stdout.readline().decode() if ready else ""
        match = re.match(r"PORT (\d+)", line)
        if match is None:
            _signal_group(process, signal.SIGKILL)
            process.wait()
            raise NodeStartError(
                f"node {' '.join(args)} did not announce a port "
                f"(stdout {line!r}); stderr:\n"
                + stderr_path.read_text(errors="replace")
            )
        node.address = ("127.0.0.1", int(match.group(1)))
        return node

    def pids(self) -> list[int]:
        return [node.pid for node in self.nodes if node.process.poll() is None]

    def close(self) -> None:
        """Stop every node (terminate, then kill) and remove the files."""
        for node in self.nodes:
            if node.process.poll() is None:
                _signal_group(node.process, signal.SIGTERM)
        for node in self.nodes:
            try:
                node.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
            # The group may hold more than the leader; make sure of it.
            _signal_group(node.process, signal.SIGKILL)
            node.process.wait()
            if node.process.stdout is not None:
                node.process.stdout.close()
        self.nodes.clear()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def pin_single_client(single: bool) -> None:
    """Pin the calling thread (and the threads and nodes it starts later) to
    the first allowed CPU, or give it all allowed CPUs back."""
    os.sched_setaffinity(0, {min(ALLOWED_CPUS)} if single else ALLOWED_CPUS)


def cpu_seconds(pids: list[int]) -> float:
    """User+system CPU of this process plus the live processes in ``pids``."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident memory (``VmHWM``) of the processes."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


class CpuSampler(threading.Thread):
    """Reads :func:`cpu_seconds` once a second while a phase runs, so CPU per
    operation can be taken per second and a disturbed second left out."""

    def __init__(self, pids: list[int]) -> None:
        super().__init__(name="cpu-sampler", daemon=True)
        self._pids = pids
        self._stop_event = threading.Event()
        #: ``(perf_counter time, cumulative CPU seconds)`` samples.
        self.samples: list[tuple[float, float]] = []

    def run(self) -> None:
        while True:
            self.samples.append((time.perf_counter(), cpu_seconds(self._pids)))
            if self._stop_event.wait(1.0):
                break

    def stop(self) -> None:
        self._stop_event.set()
        self.join()
        self.samples.append((time.perf_counter(), cpu_seconds(self._pids)))
