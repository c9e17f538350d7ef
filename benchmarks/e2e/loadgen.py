"""Seeded inputs and the two load loops (closed and paced).

Everything the program under test sees is generated here from ``--seed``:
the operation streams (TPC-W interactions with uniform or Zipf keys, the
analytics rotation) and the paced phase's arrival schedule.  An operation is
a plain tuple ``(name, *parameters)``.

Two loops drive a list of *clients* (callables taking one operation and
returning its result), one thread per client, or the calling thread when
there is one client:

* :func:`run_closed` — each client issues its next operation as soon as the
  previous one returns, until the window ends (capacity);
* :func:`run_paced` — operations fall due on a seeded Poisson schedule and
  are timed **from when they were due**, so time spent waiting behind a
  slow operation counts (latency at a fixed rate).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

#: TPC-W browsing mix (the paper's four read-only interactions).
READ_MIX = (
    ("getName", 0.30),
    ("getCustomer", 0.30),
    ("doSubjectSearch", 0.25),
    ("doGetRelated", 0.15),
)
ZIPF_EXPONENT = 1.1
#: Every Nth read is kept for the oracle check made after the phase.
ORACLE_EVERY = 50
#: A paced operation started later than this after its due time, by a
#: client that was idle when it fell due, counts against the generator.
LATE_THRESHOLD_S = 0.001
#: How long past the paced window clients keep draining a backlog before
#: the remaining due operations are written off as misses.
PACED_GRACE_S = 1.0

Op = tuple


def stream_rng(seed: int, lane: int) -> random.Random:
    """The generator of one input lane (a client, the schedule, ...)."""
    return random.Random(seed * 1_000_003 + lane)


class KeySampler:
    """Keys ``1..n``, uniform or Zipf(1.1) with key 1 the most popular."""

    def __init__(self, n: int, zipf: bool) -> None:
        self.n = n
        self._cumulative: Optional[list[float]] = None
        if zipf:
            weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, n + 1)]
            self._cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        if self._cumulative is None:
            return rng.randint(1, self.n)
        point = rng.random() * self._cumulative[-1]
        return min(self.n, bisect.bisect_left(self._cumulative, point) + 1)


class TpcwOps:
    """An endless seeded stream of TPC-W operations.

    ``adhoc_share`` of the operations are ``adhocLookup`` (the getName SQL
    with its literal inlined) and ``transfer_share`` are stock transfers
    ``("transfer", source, destination, quantity)`` between two distinct
    uniformly drawn items; the rest follow :data:`READ_MIX`.

    The mix is **stratified**: the stream is a sequence of blocks, each
    holding every operation type in exactly its share, in seeded random
    order with seeded keys.  A window of a few hundred operations then holds
    the same number of expensive ``doSubjectSearch`` calls whatever the
    seed, instead of a binomial draw that alone moves the mean cost by 10 %.
    """

    def __init__(
        self,
        seed: int,
        lane: int,
        *,
        customers: int,
        items: int,
        subjects: Sequence[str],
        zipf: bool = False,
        adhoc_share: float = 0.0,
        transfer_share: float = 0.0,
    ) -> None:
        self._rng = stream_rng(seed, lane)
        self._customers = KeySampler(customers, zipf)
        self._items = KeySampler(items, zipf)
        self._subject_keys = KeySampler(len(subjects), zipf)
        self._subjects = list(subjects)
        self._num_items = items
        self._block = mix_block(adhoc_share, transfer_share)
        self._pending: list[str] = []

    def next(self) -> Op:
        rng = self._rng
        if not self._pending:
            self._pending = list(self._block)
            rng.shuffle(self._pending)
        name = self._pending.pop()
        if name == "transfer":
            source = rng.randint(1, self._num_items)
            destination = rng.randint(1, self._num_items - 1)
            if destination >= source:
                destination += 1
            return (name, source, destination, rng.randint(1, 3))
        if name in ("getName", "adhocLookup"):
            return (name, self._customers.draw(rng))
        if name == "getCustomer":
            return (name, f"user{self._customers.draw(rng):07d}")
        if name == "doSubjectSearch":
            return (name, self._subjects[self._subject_keys.draw(rng) - 1])
        return (name, self._items.draw(rng))

    def take(self, count: int) -> list[Op]:
        return [self.next() for _ in range(count)]


def mix_block(adhoc_share: float, transfer_share: float) -> list[str]:
    """The smallest block (a multiple of 20, at most 200 operations) that
    holds every operation type in exactly its share."""
    shares = [("adhocLookup", adhoc_share), ("transfer", transfer_share)]
    shares += [(name, weight * (1.0 - adhoc_share - transfer_share)) for name, weight in READ_MIX]
    for size in range(20, 201, 20):
        counts = [(name, share * size) for name, share in shares]
        if all(abs(count - round(count)) < 1e-6 for _, count in counts):
            return [name for name, count in counts for _ in range(round(count))]
    raise ValueError(f"no block of at most 200 operations holds the mix {shares}")


class AnalyticsOps:
    """The analytics rotation: five query shapes in turn, their parameters
    seeded, and one primary-key ``update`` after every eighth query."""

    SHAPES = ("agg_full", "scan_filtered", "agg_filtered", "join2", "join3")
    QUERIES_PER_UPDATE = 8

    def __init__(self, seed: int, lane: int, *, fact_rows: int) -> None:
        self._rng = stream_rng(seed, lane)
        self._fact_rows = fact_rows
        self._queries = 0
        self._update_due = False

    def next(self) -> Op:
        rng = self._rng
        if self._update_due:
            self._update_due = False
            return ("update", rng.randrange(self._fact_rows), rng.randint(0, 999))
        shape = self.SHAPES[self._queries % len(self.SHAPES)]
        self._queries += 1
        self._update_due = self._queries % self.QUERIES_PER_UPDATE == 0
        if shape == "scan_filtered":
            return (shape, rng.randrange(100), rng.randint(8000, 9500))
        if shape == "agg_filtered":
            return (shape, rng.randint(1000, 5000))
        if shape == "join2":
            return (shape, rng.randrange(7))
        if shape == "join3":
            return (shape, rng.randrange(7), rng.randint(5, 15))
        return (shape,)

    def take(self, count: int) -> list[Op]:
        return [self.next() for _ in range(count)]


def op_list_hash(ops: Sequence[Op]) -> str:
    """A digest of an operation list (same seed, same digest)."""
    return hashlib.sha256(repr(list(ops)).encode()).hexdigest()


def arrival_schedule(seed: int, rate_ops_s: float, seconds: float) -> list[float]:
    """Due times (seconds from phase start) of a Poisson arrival process."""
    rng = stream_rng(seed, 7_777)
    due: list[float] = []
    clock = rng.expovariate(rate_ops_s)
    while clock < seconds:
        due.append(clock)
        clock += rng.expovariate(rate_ops_s)
    return due


# -- statistics ---------------------------------------------------------------

_TAIL_PERCENTILES = (0.50, 0.90, 0.95, 0.99, 0.999)


def _rank(samples: int, q: float) -> int:
    """1-based nearest rank ``ceil(samples * q)``, within ``1..samples``
    (rounded first, so that 100 * 0.9 is 90 and not 90.00000000000001)."""
    return min(samples, max(1, math.ceil(round(samples * q, 9))))


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list (0.0 if empty)."""
    if not sorted_samples:
        return 0.0
    return sorted_samples[_rank(len(sorted_samples), q) - 1]


def highest_supported_percentile(samples: int) -> float:
    """The highest of p50/p90/p95/p99/p999 with ten or more samples beyond."""
    best = _TAIL_PERCENTILES[0]
    for q in _TAIL_PERCENTILES:
        if samples and samples - _rank(samples, q) >= 10:
            best = q
    return best


def windowed_statistics(
    latencies: Sequence[float],
    due_offsets: Sequence[float],
    seconds: float,
    quantiles: Sequence[float],
    min_samples: int = 200,
) -> tuple[float, list[float], int]:
    """The mean and each quantile as the **median over sub-windows** of the
    window's own mean or percentile, and the number of windows used.

    The paced window is cut, by due time, into as many equal sub-windows as
    keep ``min_samples`` latencies each (at most one per second).  A stall of
    the machine lands in one sub-window and the median leaves it out."""
    windows = max(1, min(int(seconds), len(latencies) // min_samples))
    width = seconds / windows
    buckets: list[list[float]] = [[] for _ in range(windows)]
    for latency, offset in zip(latencies, due_offsets):
        buckets[min(windows - 1, int(offset / width))].append(latency)
    for bucket in buckets:
        bucket.sort()
    filled = [bucket for bucket in buckets if bucket]
    if not filled:
        return 0.0, [0.0 for _ in quantiles], 0
    return (
        statistics.median(statistics.fmean(bucket) for bucket in filled),
        [statistics.median(percentile(bucket, q) for bucket in filled) for q in quantiles],
        len(filled),
    )


def median_per_second(ends: Sequence[float], start: float, seconds: float) -> float:
    """Median of the completion counts of each whole second of a window."""
    whole = max(1, int(seconds))
    counts = [0] * whole
    for end in ends:
        second = int(end - start)
        if 0 <= second < whole:
            counts[second] += 1
    return float(statistics.median(counts))


# -- the loops ----------------------------------------------------------------


@dataclass
class PhaseResult:
    """What one load phase observed."""

    start: float = 0.0
    #: Completion time (``perf_counter``) of every successful operation.
    ends: list[float] = field(default_factory=list)
    #: Closed phases: service time (issue to completion) of each of them.
    durations: list[float] = field(default_factory=list)
    #: Paced phases: due-time latency of every completed operation, seconds,
    #: and when (seconds from phase start) each of them was due.
    latencies: list[float] = field(default_factory=list)
    due_offsets: list[float] = field(default_factory=list)
    attempted: int = 0
    #: ``(op, error text)`` of operations that raised.
    failures: list[tuple[Op, str]] = field(default_factory=list)
    #: ``(op, result)`` of every :data:`ORACLE_EVERY`-th read, for the oracle.
    samples: list[tuple[Op, object]] = field(default_factory=list)
    reads: int = 0
    #: Paced phases: operations due in the window (finished or not).
    due: int = 0
    late: int = 0
    backlogged: int = 0
    max_lag: float = 0.0

    def completed(self, op: Op, value: object) -> None:
        """Count a finished operation; keep every Nth read for the oracle."""
        if op[0] not in ("transfer", "update"):
            self.reads += 1
            if self.reads % ORACLE_EVERY == 0:
                self.samples.append((op, value))

    def merge(self, other: "PhaseResult") -> None:
        self.ends.extend(other.ends)
        self.durations.extend(other.durations)
        self.latencies.extend(other.latencies)
        self.due_offsets.extend(other.due_offsets)
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.samples.extend(other.samples)
        self.late += other.late
        self.backlogged += other.backlogged
        self.max_lag = max(self.max_lag, other.max_lag)


def _run_clients(workers: list[Callable[[], PhaseResult]]) -> PhaseResult:
    """Run one worker inline, or several on threads; merge what they saw."""
    if len(workers) == 1:
        return workers[0]()
    parts: list[Optional[PhaseResult]] = [None] * len(workers)
    errors: list[BaseException] = []

    def target(index: int) -> None:
        try:
            parts[index] = workers[index]()
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [
        # Daemons: an interrupt on the calling thread must not wait for them.
        threading.Thread(target=target, args=(index,), name=f"client-{index}", daemon=True)
        for index in range(len(workers))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = PhaseResult()
    for part in parts:
        assert part is not None
        merged.merge(part)
    return merged


def run_closed(
    clients: Sequence[Callable[[Op], object]],
    streams: Sequence,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> PhaseResult:
    """Closed loop: every client issues operations back to back."""
    start = clock()
    deadline = start + seconds

    def worker(execute: Callable[[Op], object], stream) -> Callable[[], PhaseResult]:
        def run() -> PhaseResult:
            result = PhaseResult()
            now = clock()
            while now < deadline:
                op = stream.next()
                result.attempted += 1
                try:
                    value = execute(op)
                except Exception as error:
                    result.failures.append((op, repr(error)))
                    now = clock()
                    continue
                issued, now = now, clock()
                result.ends.append(now)
                result.durations.append(now - issued)
                result.completed(op, value)
            return result

        return run

    merged = _run_clients([worker(c, s) for c, s in zip(clients, streams)])
    merged.start = start
    return merged


def _spin(seconds: float) -> None:
    wake = time.perf_counter() + seconds
    while time.perf_counter() < wake:
        pass


def run_paced(
    clients: Sequence[Callable[[Op], object]],
    stream,
    due: Sequence[float],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Optional[Callable[[float], None]] = None,
) -> PhaseResult:
    """Open loop: operation ``i`` of ``stream`` falls due at ``due[i]`` whatever the
    clients are doing; an idle client waits for the next due time, a busy
    one picks the operation up late and the wait counts in its latency.

    Several clients wait by sleeping.  A single client — the in-process
    workloads, where the program runs on the generator's own thread — waits
    by spinning: on the virtual machines this suite runs on, a CPU that
    idles between requests runs the next one up to 2x slower, and a
    one-thread generator has nobody to yield the CPU to."""
    if sleep is None:
        sleep = _spin if len(clients) == 1 else time.sleep
    start = clock()
    give_up = start + seconds + PACED_GRACE_S
    lock = threading.Lock()
    position = itertools.count()

    def worker(execute: Callable[[Op], object]) -> Callable[[], PhaseResult]:
        def run() -> PhaseResult:
            result = PhaseResult()
            while True:
                with lock:
                    index = next(position)
                    if index >= len(due):
                        return result
                    op = stream.next()
                due_at = start + due[index]
                free_at = clock()
                if free_at > give_up:
                    return result  # written off: counted in ``due`` only
                if free_at < due_at:
                    sleep(due_at - free_at)
                began = clock()
                if free_at <= due_at:
                    lag = began - due_at
                    result.max_lag = max(result.max_lag, lag)
                    if lag > LATE_THRESHOLD_S:
                        result.late += 1
                else:
                    result.backlogged += 1
                result.attempted += 1
                try:
                    value = execute(op)
                except Exception as error:
                    result.failures.append((op, repr(error)))
                    continue
                end = clock()
                result.ends.append(end)
                result.latencies.append(end - due_at)
                result.due_offsets.append(due[index])
                result.completed(op, value)

        return run

    merged = _run_clients([worker(execute) for execute in clients])
    merged.start = start
    merged.due = len(due)
    return merged

