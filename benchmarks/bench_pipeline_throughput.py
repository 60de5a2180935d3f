"""Throughput benchmark: the StreamDB batch path vs. the per-point loop.

Runs every paper filter over a random-walk workload twice — once feeding one
:class:`DataPoint` at a time (the seed implementation's only mode) and once
through the :class:`repro.api.session.StreamDB` session façade, whose
``ingest`` drives the ``process_batch`` fast path and archives the
recordings into a (temporary) store — and reports points/second plus the
speedup.  Both paths produce bit-identical recordings (enforced by
``tests/test_batch_equivalence.py``; re-checked here on the first 20,000
points, chunked as the pipeline chunks them), so the comparison is the
per-point loop's overhead plus the real archival cost the façade pays.

Usage::

    python benchmarks/bench_pipeline_throughput.py                  # 200k points
    python benchmarks/bench_pipeline_throughput.py --points 1000000
    # CI smoke run: twenty chunks, so the check sees state carried across chunks
    python benchmarks/bench_pipeline_throughput.py --points 20000 --chunk-size 1000 --no-assert

The headline number (asserted unless ``--no-assert`` is given) is the swing
filter's speedup: the paper's flagship online filter must ingest at least 5×
faster through the batch pipeline than through the per-point loop.  On this
1-D walk (a few hundred points per recording) swing's batch path is its
float-native core, which runs the per-point arithmetic on Python floats
without the per-point call and validation overhead of ``feed()``.  The
slide filter is reported too but not asserted: its inner loop does per-point
convex-hull and tangent work that acceptance-equivalence forbids batching
away, so its speedup is structurally modest.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.epsilon import epsilon_from_percent
from repro.core.registry import PAPER_FILTERS, create_filter
from repro.data.random_walk import RandomWalkConfig, random_walk

from bench_utils import write_bench_json

#: Precision width as % of the signal range (a mid-range setting of the
#: paper's 1–10 % evaluation sweep).
PRECISION_PERCENT = 5.0


def make_workload(points: int, seed: int = 42):
    config = RandomWalkConfig(
        length=points, decrease_probability=0.5, max_delta=0.5, seed=seed
    )
    return random_walk(config)


def run_per_point(name: str, times, values, epsilon) -> tuple:
    stream_filter = create_filter(name, epsilon)
    started = time.perf_counter()
    for t, v in zip(times, values):
        stream_filter.feed(t, v)
    stream_filter.finish()
    elapsed = time.perf_counter() - started
    return elapsed, stream_filter.recording_count


def run_batched(name: str, times, values, epsilon, chunk_size: int) -> tuple:
    with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as workdir:
        with repro.open(
            Path(workdir) / "store",
            filter=repro.FilterSpec(name, epsilon=epsilon),
        ) as db:
            report = db.ingest("bench", times, values, chunk_size=chunk_size)
    return report.elapsed_seconds, report.recordings


def check_equivalence(times, values, epsilon, chunk_size: int, prefix: int = 20_000) -> None:
    times, values = times[:prefix], values[:prefix]
    for name in PAPER_FILTERS:
        reference = create_filter(name, epsilon).process(zip(times, values)).recordings
        batch_filter = create_filter(name, epsilon)
        candidate = []
        for start in range(0, len(times), chunk_size):
            candidate += batch_filter.process_batch(
                times[start : start + chunk_size], values[start : start + chunk_size]
            )
        candidate += batch_filter.finish()
        assert len(reference) == len(candidate), name
        for expected, actual in zip(reference, candidate):
            assert actual.time == expected.time and np.array_equal(
                actual.value, expected.value
            ), name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=200_000, help="workload size")
    parser.add_argument("--chunk-size", type=int, default=4096, help="pipeline chunk size")
    parser.add_argument(
        "--no-check", action="store_true", help="skip the recording-equivalence check"
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="report only; do not enforce the 5x target"
    )
    args = parser.parse_args(argv)

    times, values = make_workload(args.points)
    epsilon = epsilon_from_percent(PRECISION_PERCENT, values)
    print(
        f"workload: random walk, {args.points:,} points, "
        f"epsilon = {epsilon:.4g} ({PRECISION_PERCENT:g}% of range), "
        f"chunk size {args.chunk_size}"
    )

    if not args.no_check:
        check_equivalence(times, values, epsilon, args.chunk_size)
        print("equivalence: batch and per-point recordings identical (checked)")

    print(f"\n{'filter':<8} {'per-point pts/s':>16} {'batch pts/s':>14} {'speedup':>8} {'recordings':>11}")
    speedups = {}
    metrics = {"points": args.points, "chunk_size": args.chunk_size, "filters": {}}
    for name in PAPER_FILTERS:
        per_point_elapsed, per_point_recordings = run_per_point(name, times, values, epsilon)
        batch_elapsed, batch_recordings = run_batched(
            name, times, values, epsilon, args.chunk_size
        )
        assert per_point_recordings == batch_recordings
        per_point_rate = args.points / per_point_elapsed
        batch_rate = args.points / batch_elapsed
        speedups[name] = per_point_elapsed / batch_elapsed
        metrics["filters"][name] = {
            "per_point_points_per_second": per_point_rate,
            "batch_points_per_second": batch_rate,
            "speedup": speedups[name],
            "recordings": batch_recordings,
        }
        print(
            f"{name:<8} {per_point_rate:>16,.0f} {batch_rate:>14,.0f} "
            f"{speedups[name]:>7.1f}x {batch_recordings:>11,}"
        )

    print(f"\nheadline (swing): {speedups['swing']:.1f}x")
    print(f"results written to {write_bench_json('pipeline_throughput', metrics)}")
    if not args.no_assert and args.points >= 100_000 and speedups["swing"] < 5.0:
        print("FAIL: swing batch ingestion is below the 5x throughput target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
