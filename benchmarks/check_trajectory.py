"""Diff fresh benchmark results against the committed perf trajectory.

``benchmarks/results/`` holds the repo's committed performance record: one
``BENCH_<name>.json`` snapshot per benchmark (the floor) plus
``TRAJECTORY.jsonl`` with one appended entry per PR that moved a number
(see ``bench_utils.append_trajectory``).  CI re-runs the benchmarks and
then runs this script, which checks every fresh ``BENCH_*.json`` whose
floor-enforced counterpart is committed:

* the fresh headline speedup must be at or above the *committed* asserted
  floor — a regression that sneaks past a benchmark's own assertion (for
  example because someone lowered ``--floor``) still fails here;
* fresh runs made with ``--no-assert`` (reduced CI workloads whose floors
  are not calibrated) are reported but not enforced;
* benchmarks with no committed snapshot, or committed snapshots with no
  fresh run, are reported and skipped — CI does not run every benchmark.

Usage::

    python benchmarks/check_trajectory.py                 # fresh files in cwd
    python benchmarks/check_trajectory.py --fresh-dir out --results-dir benchmarks/results
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Headline metric keys per benchmark; the enforced value is the minimum
#: across the listed keys.  Only benchmarks that record ``asserted_floor``
#: belong here — the committed floor is meaningless for the others.
HEADLINE = {
    "rolling_zoom": ("rolling_speedup",),
    "tangent_hints": ("upper_speedup", "lower_speedup"),
    "query_engine": ("range_speedup",),
    "parallel_ingest": ("speedup",),
    # Normalized columnar-backend margin: min(read speedup / 3x floor,
    # scan-aggregate speedup / 2x floor); at floor the margin is 1.0.
    "store": ("columnar_floor_margin",),
    # Normalized served-ingest margin: points/s over the wire divided by the
    # run's own --floor; at floor the margin is 1.0.
    "server": ("ingest_floor_margin",),
}


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def headline(name: str, metrics: dict):
    keys = HEADLINE.get(name)
    if not keys:
        return None
    values = [metrics[key] for key in keys if metrics.get(key) is not None]
    return min(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_results = Path(__file__).resolve().parent / "results"
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=default_results,
        help="committed trajectory directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the fresh BENCH_*.json files (default: cwd)",
    )
    args = parser.parse_args(argv)

    committed = sorted(args.results_dir.glob("BENCH_*.json"))
    if not committed:
        print(f"no committed BENCH_*.json under {args.results_dir}")
        return 1

    failures = []
    checked = 0
    for committed_path in committed:
        name = committed_path.stem[len("BENCH_") :]
        committed_metrics = load(committed_path).get("metrics", {})
        floor = committed_metrics.get("asserted_floor")
        fresh_path = args.fresh_dir / committed_path.name
        if not fresh_path.exists():
            print(f"  {name:<18} skipped (no fresh run)")
            continue
        fresh_metrics = load(fresh_path).get("metrics", {})
        value = headline(name, fresh_metrics)
        if floor is None or value is None:
            shown = "-" if value is None else f"{value:.2f}x"
            print(f"  {name:<18} {shown:>8}  informational (no committed floor)")
            continue
        enforced = fresh_metrics.get("asserted_floor") is not None
        status = "OK" if value >= floor else "FAIL"
        if not enforced:
            status = "info"  # reduced workload: floor not calibrated for it
        print(
            f"  {name:<18} fresh {value:7.2f}x  committed floor {floor:g}x  [{status}]"
        )
        if enforced:
            checked += 1
            if value < floor:
                failures.append(name)

    if failures:
        print(f"FAIL: below the committed floor: {', '.join(failures)}")
        return 1
    if not checked:
        print("WARNING: no floor-enforced fresh results were checked")
    else:
        print(f"{checked} benchmark(s) at or above their committed floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
