"""The end-to-end benchmark: one command, seven workloads, fixed metrics.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace 0|1] [--smoke] [--out FILE]

For each workload the runner builds the oracle, sets the system up (three
times when ``setup_s`` is reported, keeping the last), and then runs

* with ``--trace 1`` (or no ``--trace``): the **traced pass** — a fixed,
  seeded operation list replayed by one client, first plain and then through
  the span-recording proxy, followed by the stage replays;
* the **timed pass**, tracing off — warm-up (10 % of ``--seconds``,
  discarded), the closed-loop capacity phase (50 %) and the open-loop paced
  phase (40 %) at the workload's frozen rate;
* the end-of-run invariants (ledger, ``kill -9`` and recovery).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, no ``--trace`` both.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any operation failed or any invariant is broken.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR))

from nodes import (  # noqa: E402
    OUT_DIR,
    REPO_ROOT,
    SRC_DIR,
    CpuSampler,
    Fleet,
    peak_rss_mb,
    pin_single_client,
)

if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"run.py: the program under test is not at {SRC_DIR}; nothing to measure")
sys.path.insert(0, str(SRC_DIR))

import layers  # noqa: E402
from loadgen import (  # noqa: E402
    arrival_schedule,
    highest_supported_percentile,
    median_per_second,
    percentile,
    run_closed,
    run_paced,
    windowed_statistics,
)
from workloads import FROZEN, FSYNC, WORKLOADS, Workload, check_samples  # noqa: E402

DEFAULT_SEED = 20060401
DEFAULT_SECONDS = 12
SETUP_REPEATS = 3
#: Shares of ``--seconds`` given to the three timed windows.
WARMUP_SHARE, CAPACITY_SHARE, PACED_SHARE = 1 / 12, 7 / 12, 4 / 12
#: Lanes (independent input streams) of one seed.
LANE_WARMUP, LANE_CAPACITY, LANE_PACED, LANE_TRACE = 0, 10, 20, 30


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def cpu_per_kop(samples: list[tuple[float, float]], ends: list[float]) -> float:
    """Median over the sampler's one-second intervals of CPU seconds used
    per 1000 operations completed in the interval."""
    ends = sorted(ends)
    ratios = []
    for (began, cpu_before), (ended, cpu_after) in zip(samples, samples[1:]):
        completed = bisect.bisect_right(ends, ended) - bisect.bisect_right(ends, began)
        if ended - began >= 0.5 and completed:
            ratios.append((cpu_after - cpu_before) / completed * 1000.0)
    return statistics.median(ratios) if ratios else 0.0


# -- the timed pass -------------------------------------------------------------


def timed_pass(workload: Workload, seed: int, seconds: float) -> dict:
    """Warm-up, capacity (closed loop) and paced (open loop) phases."""
    database = workload.database()
    clients = [workload.client(database) for _ in range(workload.clients)]

    def streams(lane: int):
        return [workload.stream(seed, lane + index) for index in range(workload.clients)]

    run_closed(clients, streams(LANE_WARMUP), seconds * WARMUP_SHARE)

    capacity_s = seconds * CAPACITY_SHARE
    counters_before = workload.counters()
    transactions_before = workload.transactions()
    conflicts_before = workload.conflicts()
    sampler = CpuSampler(workload.pids())
    sampler.start()
    capacity = run_closed(clients, streams(LANE_CAPACITY), capacity_s)
    sampler.stop()
    counters = layers.delta(workload.counters(), counters_before)
    transactions = workload.transactions() - transactions_before
    conflicts = tuple(a - b for a, b in zip(workload.conflicts(), conflicts_before))

    throughput = median_per_second(capacity.ends, capacity.start, capacity_s)
    _, (loaded_p50, loaded_p95), _ = windowed_statistics(
        [duration * 1000.0 for duration in capacity.durations],
        [end - capacity.start for end in capacity.ends],
        capacity_s,
        (0.50, 0.95),
    )
    frozen = FROZEN[workload.name]
    # The smoke sizes have no frozen rate: pace at a quarter of what was measured.
    rate = throughput * 0.25 if workload.smoke else frozen["rate_ops_s"]
    paced_s = seconds * PACED_SHARE
    due = arrival_schedule(seed, rate, paced_s)
    paced = run_paced(clients, workload.stream(seed, LANE_PACED), due, paced_s)

    latencies_ms = sorted(latency * 1000.0 for latency in paced.latencies)
    mean, (p50, p95), _ = windowed_statistics(
        [latency * 1000.0 for latency in paced.latencies], paced.due_offsets, paced_s, (0.50, 0.95)
    )
    slo_ms = 5.0 * p50 if workload.smoke else frozen["slo_ms"]
    within = sum(1 for latency in latencies_ms if latency <= slo_ms)
    tail_q = highest_supported_percentile(len(latencies_ms))

    problems = check_samples(workload, capacity.samples + paced.samples)
    failures = [f"{op!r} raised {error}" for op, error in capacity.failures + paced.failures]
    attempted = capacity.attempted + paced.due
    failed = len(failures) + len(problems)
    completed = len(capacity.ends)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": failures + problems,
        "rate_ops_s": rate,
        "slo_ms": slo_ms,
        "capacity_counters": counters,
        "capacity_ops": completed,
        "capacity_transactions": transactions,
        "capacity_conflicts": conflicts,
        "end_to_end": {
            "throughput_ops_s": metric(throughput, "ops/s", int(capacity_s)),
            "cpu_s_per_kop": metric(cpu_per_kop(sampler.samples, capacity.ends), "s/kop", completed),
            "loaded_p95_ms": metric(loaded_p95, "ms", completed),
        },
        "driver": {
            name: layers.metric(value, name, samples)
            for name, value, samples in (
                ("loaded_p50_ms", loaded_p50, completed),
                ("paced_mean_ms", mean, len(latencies_ms)),
                ("paced_p50_ms", p50, len(latencies_ms)),
                ("paced_p95_ms", p95, len(latencies_ms)),
                ("paced_within_slo_share", within / max(1, paced.due), paced.due),
                ("error_share", failed / max(1, attempted), attempted),
                ("driver.paced_tail_ms", percentile(latencies_ms, tail_q), len(latencies_ms)),
                ("driver.paced_tail_percentile", tail_q * 100.0, len(latencies_ms)),
                ("driver.late_share", paced.late / max(1, paced.due), paced.due),
                ("driver.backlog_share", paced.backlogged / max(1, paced.due), paced.due),
                ("driver.max_lag_ms", paced.max_lag * 1000.0, paced.due),
            )
        },
    }


# -- one workload -----------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, timed: bool, traced: bool) -> dict:
    """Everything for one workload; returns its section of the result."""
    pin_single_client(workload.clients == 1)
    workload.build_oracle()
    setup_times = []
    fleet = None
    for _ in range(SETUP_REPEATS if timed else 1):
        if fleet is not None:
            workload.teardown()
            fleet.close()
        fleet = Fleet()
        started = time.perf_counter()
        try:
            workload.setup(fleet)
        except BaseException:
            workload.teardown()
            fleet.close()
            raise
        setup_times.append(time.perf_counter() - started)
    try:
        per_layer: dict[str, dict] = {}
        attempted = failed = 0
        problems: list[str] = []
        if traced:
            trace = layers.traced_pass(workload, seed, LANE_TRACE)
            per_layer.update(trace["metrics"])
            attempted += trace["attempted"]
            failed += trace["failed"]
            problems += trace["problems"]
        timing = timed_pass(workload, seed, seconds)
        attempted += timing["attempted"]
        failed += timing["failed"]
        problems += timing["problems"]
        per_layer.update(timing["driver"])
        per_layer.update(layers.capacity_metrics(workload, timing))
        rss = peak_rss_mb([os.getpid(), *workload.pids()])
        broken, extra = workload.finish()
        problems += broken
        for name, value in extra.items():
            per_layer[name] = layers.metric(value, name, 1)
    finally:
        workload.teardown()
        fleet.close()
    end_to_end = dict(timing["end_to_end"])
    end_to_end["setup_s"] = metric(statistics.median(setup_times), "s", len(setup_times))
    end_to_end["peak_rss_mb"] = metric(rss, "MB", 1)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed + len(broken),
        "problems": problems[:20],
        "rate_ops_s": timing["rate_ops_s"],
        "slo_ms": timing["slo_ms"],
        "facts": workload.describe(),
        "end_to_end": end_to_end,
        "per_layer": layers.complete(per_layer),
    }


# -- reporting ----------------------------------------------------------------------


def print_section(name: str, section: dict, show_end_to_end: bool, show_layers: bool) -> None:
    print(f"== {name}: rate {section['rate_ops_s']:g} ops/s, slo {section['slo_ms']:g} ms, "
          f"attempted {section['attempted']}, failed {section['failed']}")
    groups = []
    if show_end_to_end:
        groups.append(section["end_to_end"])
    if show_layers:
        groups.append(section["per_layer"])
    for group in groups:
        for metric_name, entry in group.items():
            if entry["samples"] == 0:
                continue  # does not apply to this workload (0 in the JSON line)
            print(f"  {metric_name:<44} {entry['value']:>14.4f} {entry['unit']:<8} n={entry['samples']}")
    for problem in section["problems"]:
        print(f"  PROBLEM: {problem}")


def provenance(arguments: argparse.Namespace, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": arguments.seed,
        "seconds": seconds,
        "windows_s": {
            "warmup": seconds * WARMUP_SHARE,
            "capacity": seconds * CAPACITY_SHARE,
            "paced": seconds * PACED_SHARE,
        },
        "smoke": arguments.smoke,
        "trace": arguments.trace,
        "program_tracing": "off",
        "fsync": FSYNC,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
    }


def run_in_child(name: str, arguments: argparse.Namespace, seconds: float) -> dict:
    """One workload of an all-workloads run, in an interpreter of its own —
    as the driver runs it — so that no workload inherits the heap, the
    caches or the peak-memory watermark of the one before."""
    section_file = OUT_DIR / f"section-{os.getpid()}-{name}.json"
    command = [
        sys.executable, str(E2E_DIR / "run.py"), "--workload", name, "--seed", str(arguments.seed),
        "--seconds", str(seconds), "--out", str(section_file),
    ]
    if arguments.trace is not None:
        command += ["--trace", str(arguments.trace)]
    if arguments.smoke:
        command.append("--smoke")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        report, _ = child.communicate()
    except BaseException:
        child.terminate()  # SIGTERM: the child stops its nodes on the way out
        child.wait()
        raise
    print("\n".join(report.splitlines()[:-1]), flush=True)  # all but its JSON line
    try:
        return json.loads(section_file.read_text())["workloads"][name]
    except FileNotFoundError:
        raise RuntimeError(f"workload {name} exited with code {child.returncode} and left no result")
    finally:
        section_file.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help=f"measured seconds per workload (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="0: end-to-end metrics only; 1: per-layer metrics only; omitted: both")
    parser.add_argument("--smoke", action="store_true", help="tiny data and 1 s windows, oracle still on")
    parser.add_argument("--out", help="write the full result as JSON to this file")
    arguments = parser.parse_args(argv)
    seconds = arguments.seconds if arguments.seconds is not None else (2.5 if arguments.smoke else DEFAULT_SECONDS)
    timed = arguments.trace != 1
    traced = arguments.trace != 0

    result = {"provenance": provenance(arguments, seconds), "workloads": {}}
    if arguments.workload:
        name = arguments.workload
        section = run_workload(WORKLOADS[name](arguments.smoke), arguments.seed, seconds, timed, traced)
        result["workloads"][name] = section
        print_section(name, section, timed, traced)
    else:
        for name in WORKLOADS:
            result["workloads"][name] = run_in_child(name, arguments, seconds)
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(result, indent=1) + "\n")

    sections = result["workloads"]
    metrics = {}
    for name, section in sections.items():
        prefix = "" if arguments.workload else f"{name}."
        chosen = {}
        if timed:
            chosen.update(section["end_to_end"])
        if traced:
            chosen.update(section["per_layer"])
        for metric_name, entry in chosen.items():
            metrics[prefix + metric_name] = {"value": entry["value"], "unit": entry["unit"]}
    correct = all(section["correct"] for section in sections.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(section["attempted"] for section in sections.values()),
        "failed": sum(section["failed"] for section in sections.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _terminated(signum, frame) -> None:
    raise KeyboardInterrupt  # unwind through the ``finally`` blocks that stop the nodes


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
