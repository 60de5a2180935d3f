"""Slide kernel benchmark: the float-native batch path vs the per-point loop.

The slide filter is the paper's flagship contribution, and historically the
one hot path batch ingestion barely helped (~1-2x).  This benchmark pins the
speedup of ``process_batch``, whose float-native core runs the per-point
arithmetic on Python floats over the list-backed convex hull with O(log m_H)
tangent binary searches, against the per-point ``feed()`` reference, which
pays for a ``DataPoint``, validation and the ``Line``-returning searches on
every point.

Workloads (200k points each by default):

* **smooth** — a drifting trend plus a slow seasonal component with sensor
  noise well inside the precision width (ε = 5 % of range ≈ 10σ): the
  filter's designed-for regime, long filtering intervals, mostly silent
  points.  Floor: ≥ 4x.
* **noisy** — the throughput benchmark's random walk at ε = 10 % of range
  (top of the paper's 1-10 % sweep): the intervals are still long, but
  frequent bound-update events exercise the scalar core and tangent
  searches.  Floor: ≥ 4x.
* **dense** — the served ``ingest_noisy`` regime: a Gaussian walk with
  σ = 0.4 and ε = 0.25, about five points per interval, so interval
  closes (segment fitting, connection attempts, recordings) dominate and
  the batch path has little bulk work to amortize.  ``feed()`` shares the
  interval lifecycle and speeds up with it, so the ratio alone hides
  progress: the table reports absolute µs per point too.  No floor.

Every run asserts bit-identical recordings between ``feed()`` and the batch
path.

The floors are waived automatically on starved runners (fewer than 2 CPUs
available — a preempted single-core container measures the scheduler, not
the kernels), or with ``--no-assert``.

Usage::

    python benchmarks/bench_slide_kernels.py                  # 200k points
    python benchmarks/bench_slide_kernels.py --points 40000 --smooth-floor 6 --noisy-floor 3
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.epsilon import epsilon_from_percent
from repro.core.slide import SlideFilter
from repro.data.random_walk import RandomWalkConfig, random_walk

from bench_utils import write_bench_json

#: Chunk size of the batch runs (the pipeline default is 4096).
CHUNK_SIZE = 16384


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def smooth_workload(points: int, seed: int = 9):
    """Drifting trend + slow seasonal + mild sensor noise (ε ≈ 10σ).

    The drift total and seasonal period scale with ``points`` so a smoke run
    keeps the same interval structure (and regime) as the full 200k run.
    """
    rng = np.random.default_rng(seed)
    times = np.arange(float(points))
    values = (
        (400.0 / points) * times
        + 8.0 * np.sin(times / (points / 13.0))
        + rng.normal(0.0, 2.5, points)
    )
    return times, values, epsilon_from_percent(5.0, values)


def noisy_workload(points: int, seed: int = 42):
    """The throughput benchmark's random walk, ε at the top of the sweep."""
    times, values = random_walk(
        RandomWalkConfig(length=points, decrease_probability=0.5, max_delta=0.5, seed=seed)
    )
    return times, values, epsilon_from_percent(10.0, values)


def dense_workload(points: int, seed: int = 101):
    """Gaussian walk, σ = 0.4, ε = 0.25: an interval close every ~5 points."""
    rng = np.random.default_rng(seed)
    times = np.arange(float(points))
    return times, np.cumsum(rng.normal(0.0, 0.4, points)), 0.25


#: Workloads in report order (only smooth and noisy assert a floor).
WORKLOADS = (
    ("smooth", smooth_workload),
    ("noisy", noisy_workload),
    ("dense", dense_workload),
)


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def recording_tuples(recordings):
    return [(r.time, tuple(float(v) for v in r.value), r.kind) for r in recordings]


def run_pair(times, values, epsilon, chunk_size: int):
    """Per-point vs batch on one workload; asserts identical recordings."""
    per_point = SlideFilter(epsilon)
    per_point_recordings = []
    started = time.perf_counter()
    for t, v in zip(times, values):
        per_point_recordings += per_point.feed(t, v)
    per_point_recordings += per_point.finish()
    per_point_elapsed = time.perf_counter() - started

    batch = SlideFilter(epsilon)
    batch_recordings = []
    started = time.perf_counter()
    for start in range(0, len(times), chunk_size):
        batch_recordings += batch.process_batch(
            times[start : start + chunk_size], values[start : start + chunk_size]
        )
    batch_recordings += batch.finish()
    batch_elapsed = time.perf_counter() - started

    if recording_tuples(per_point_recordings) != recording_tuples(batch_recordings):
        raise AssertionError("batch recordings differ from the per-point path")
    return per_point_elapsed, batch_elapsed, batch.recording_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=200_000, help="workload size")
    parser.add_argument("--chunk-size", type=int, default=CHUNK_SIZE)
    parser.add_argument(
        "--smooth-floor", type=float, default=4.0, help="minimum smooth-signal speedup"
    )
    parser.add_argument(
        "--noisy-floor", type=float, default=4.0, help="minimum noisy-signal speedup"
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="report without asserting the floors"
    )
    args = parser.parse_args(argv)

    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    print(
        f"workloads: {args.points:,} points, chunk size {args.chunk_size}, "
        f"{cores} core(s) available"
    )

    metrics = {"points": args.points, "chunk_size": args.chunk_size}
    speedups = {}
    print(
        f"\n{'workload':<8} {'per-point us/pt':>16} {'batch us/pt':>12} "
        f"{'speedup':>8} {'recordings':>11}"
    )
    for name, workload in WORKLOADS:
        times, values, epsilon = workload(args.points)
        per_point, batch, recordings = run_pair(times, values, epsilon, args.chunk_size)
        speedups[name] = per_point / batch
        metrics[name] = {
            "per_point_seconds": per_point,
            "batch_seconds": batch,
            "per_point_us_per_point": per_point / args.points * 1e6,
            "batch_us_per_point": batch / args.points * 1e6,
            "speedup": speedups[name],
            "recordings": recordings,
            "epsilon": float(epsilon),
        }
        print(
            f"{name:<8} {per_point / args.points * 1e6:>16.2f} "
            f"{batch / args.points * 1e6:>12.2f} {speedups[name]:>7.1f}x {recordings:>11,}"
        )
    print("recordings bit-identical across per-point and batch paths: yes")

    path = write_bench_json("slide_kernels", metrics)
    print(f"results written to {path}")

    if args.no_assert:
        return 0
    if cores is not None and cores < 2:
        print("floors waived: fewer than 2 cores available, timings measure the scheduler")
        return 0
    failed = False
    for name, floor in (
        ("smooth", args.smooth_floor),
        ("noisy", args.noisy_floor),
    ):
        if speedups[name] < floor:
            print(f"FAIL: {name} speedup {speedups[name]:.1f}x below the {floor:.1f}x floor")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
