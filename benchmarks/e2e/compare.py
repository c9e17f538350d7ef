"""Compare two sets of benchmark results, metric by metric.

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py A1.json A2.json A3.json --vs B1.json B2.json B3.json

Each file is a ``run.py --out`` result.  For every workload and end-to-end
metric the table shows both medians, the ratio ``B / A`` (base: A), the
regression bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — B's median is better than A's by more than the bound;
* ``same``       — the medians differ by no more than the bound;
* ``unresolved`` — the run-to-run spread of either side (distance between
  its quartiles over its median) is wider than the bound, so the difference
  cannot be told from noise.

Exit code 1 on any ``worse`` or when ``error_share`` is higher on the B side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    # "inclusive": the files are all the runs there are, not a sample of
    # more; with three runs one outlier then does not set both quartiles.
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return (quartiles[2] - quartiles[0]) / abs(middle)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """One of ``better`` / ``same`` / ``worse`` / ``unresolved``."""
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_median, new_median = statistics.median(base), statistics.median(new)
    if base_median == 0:
        return "same" if new_median == 0 else "unresolved"
    change = (new_median - base_median) / abs(base_median)
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per file]}}`` over both metric groups."""
    merged: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, section in document["workloads"].items():
            metrics = merged.setdefault(workload, {})
            for group in ("end_to_end", "per_layer"):
                for name, entry in section[group].items():
                    metrics.setdefault(name, []).append(entry["value"])
    return merged


def compare(base_paths: list[str], new_paths: list[str], specification: dict) -> int:
    base, new = load(base_paths), load(new_paths)
    failed = False
    print(f"{'workload':<18}{'metric':<20}{'A median':>14}{'B median':>14}{'B/A':>9}{'bound':>7}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for entry in specification["end_to_end"]:
            name = entry["name"]
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            outcome = verdict(a, b, entry["better"], entry["bound"])
            failed = failed or outcome == "worse"
            a_median, b_median = statistics.median(a), statistics.median(b)
            ratio = b_median / a_median if a_median else float("nan")
            print(
                f"{workload:<18}{name:<20}{a_median:>14.4f}{b_median:>14.4f}"
                f"{ratio:>9.3f}{entry['bound']:>7.2f}  {outcome}"
            )
        a_errors = statistics.median(base[workload].get("error_share", [0.0]))
        b_errors = statistics.median(new[workload].get("error_share", [0.0]))
        if b_errors > a_errors:
            failed = True
            print(f"{workload:<18}error_share rose from {a_errors:g} to {b_errors:g}  worse")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", help="result files of side A (or exactly A and B)")
    parser.add_argument("--vs", nargs="+", help="result files of side B")
    arguments = parser.parse_args(argv)
    if arguments.vs:
        base_paths, new_paths = arguments.files, arguments.vs
    elif len(arguments.files) == 2:
        base_paths, new_paths = arguments.files[:1], arguments.files[1:]
    else:
        parser.error("give exactly two files, or several per side separated by --vs")
    specification = json.loads(BENCHMARK_JSON.read_text())
    return compare(base_paths, new_paths, specification)


if __name__ == "__main__":
    sys.exit(main())
