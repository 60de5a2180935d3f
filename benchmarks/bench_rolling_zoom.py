"""Rolling-window + zoom-pyramid benchmark vs the decode path.

Builds one slide-compressed stream stored across >= 150 index blocks, then:

* **rolling** — a dense rolling-window sweep (``step < window``) answered by
  the planner's array window composer (range reductions over block
  summaries and bridge atoms) vs the per-window decode path: every
  window read, reconstructed and aggregated from scratch.  Asserted >= 10x
  unless ``--no-assert``; answers are additionally checked against a single
  whole-range decode sweep (the exact reference semantics).
* **zoom** — 100-cell dashboard viewports answered from the persisted
  summary pyramid vs uniform bins over the decoded pieces.  Asserts the
  structural guarantees on every query: the answer stays within the cell
  budget and decodes at most the two blocks the viewport edges cut —
  fully-covered interior blocks are answered from summaries alone.

Every rolling answer is checked against the decode path within the
planner's documented tolerance, and every zoom cell against a closed-range
clip of the decoded pieces.

Usage::

    python benchmarks/bench_rolling_zoom.py                  # full workload
    python benchmarks/bench_rolling_zoom.py --points 20000 --sweeps 3
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.approximation.reconstruct import reconstruct
from repro.core.registry import create_filter
from repro.queries.aggregates import (
    _segments_of,
    clip_aggregate,
    range_aggregate,
    window_aggregates,
)
from repro.queries.planner import TOLERANCE, plan_window_aggregates
from repro.queries.pyramid import plan_zoom, zoom_cells
from repro.storage import SegmentStore

from bench_utils import write_bench_json

#: Index blocks the built store must at least have — the scale the asserted
#: speedup floor is calibrated against.
MIN_BLOCKS = 150

#: Zoom viewport budget (the acceptance scenario: a 100-cell dashboard).
ZOOM_BUDGET = 100

_FIELDS = ("minimum", "maximum", "mean", "integral")


def build_store(directory: Path, points: int, epsilon: float, seed: int) -> SegmentStore:
    """Slide-compress a random walk and store it across >= MIN_BLOCKS blocks."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.5, points))
    values = np.cumsum(rng.normal(0.0, 1.0, points)).reshape(-1, 1)
    filt = create_filter("slide", epsilon)
    recordings = filt.process_batch(times, values) + filt.finish()
    block_records = max(8, len(recordings) // 220)
    store = SegmentStore(directory, block_records=block_records)
    store.append("s", recordings)
    store.flush()
    return store


def matches(got, ref) -> bool:
    return all(
        abs(getattr(got, field) - getattr(ref, field))
        <= max(abs(getattr(got, field)), abs(getattr(ref, field))) * TOLERANCE + TOLERANCE
        for field in _FIELDS
    )


def bench_rolling(store: SegmentStore, sweeps: int) -> Tuple[float, float, int]:
    """Time rolling sweeps (step = window / 4): planner vs per-window decode."""
    entry = store.describe("s")
    lo, hi = entry.first_time, entry.last_time
    window = (hi - lo) / 60
    step = window / 4  # 4x overlap

    # Correctness reference (untimed): one whole-range decode, array sweep.
    reference = window_aggregates(
        reconstruct(store.read("s", lo, hi)), lo, hi, window, step=step
    )

    # The naive path a consumer without the composer runs: decode every
    # window from the store on its own.
    started = time.perf_counter()
    for _ in range(sweeps):
        for result in reference:
            a, b = result.start, result.end
            range_aggregate(reconstruct(store.read("s", a, b)), a, b)
    decode_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    planner_results = plan_window_aggregates(store, "s", window, lo, hi, step=step)
    for _ in range(sweeps - 1):
        plan_window_aggregates(store, "s", window, lo, hi, step=step)
    planner_elapsed = time.perf_counter() - started

    assert len(planner_results) == len(reference)
    for index, (got, ref) in enumerate(zip(planner_results, reference)):
        assert matches(got, ref), (index, got, ref)
    return decode_elapsed, planner_elapsed, len(planner_results)


def bench_zoom(store: SegmentStore, viewports: int, seed: int) -> Tuple[float, float, int]:
    """Time 100-cell zoom viewports: pyramid vs decoded uniform bins.

    Asserts, per viewport: the budget bound, >= 10x fewer summaries touched
    than blocks spanned (via the decode counter), and cell-exactness against
    a closed-range clip of the decoded pieces.
    """
    entry = store.describe("s")
    lo, hi = entry.first_time, entry.last_time
    store.pyramid_levels("s")  # build + persist once, outside the timing
    rng = np.random.default_rng(seed * 7 + 3)
    queries = []
    for _ in range(viewports):
        width = (hi - lo) * float(rng.uniform(0.3, 0.9))
        start = float(rng.uniform(lo, hi - width))
        queries.append((start, start + width))

    approximation = reconstruct(store.read("s"))
    t0, x0, t1, x1 = _segments_of(approximation, 0)

    started = time.perf_counter()
    reference = [zoom_cells(approximation, a, b, ZOOM_BUDGET) for a, b in queries]
    decode_elapsed = time.perf_counter() - started

    decodes = []
    original = SegmentStore.read_block_arrays

    def counting(self, name, lo_block, hi_block):
        decodes.append(hi_block - lo_block)
        return original(self, name, lo_block, hi_block)

    SegmentStore.read_block_arrays = counting
    try:
        started = time.perf_counter()
        answers = []
        for a, b in queries:
            before = len(decodes)
            cells = plan_zoom(store, "s", a, b, max_points=ZOOM_BUDGET)
            blocks_decoded = sum(decodes[before:])
            assert blocks_decoded <= 2, (a, b, blocks_decoded)
            answers.append(cells)
        pyramid_elapsed = time.perf_counter() - started
    finally:
        SegmentStore.read_block_arrays = original

    tolerance = TOLERANCE
    for (a, b), cells, ref in zip(queries, answers, reference):
        assert len(cells) <= ZOOM_BUDGET, (a, b, len(cells))
        for cell in cells:
            minimum, maximum, area, covered = clip_aggregate(
                t0, x0, t1, x1, cell.start, cell.end
            )
            for got, want in (
                (cell.minimum, minimum),
                (cell.maximum, maximum),
                (cell.integral, area),
                (cell.covered, covered),
            ):
                assert abs(got - want) <= max(abs(got), abs(want)) * tolerance + tolerance, (
                    cell,
                    want,
                )
        del ref  # the reference pass is timed; cells are checked via the clip
    return decode_elapsed, pyramid_elapsed, viewports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=120_000, help="raw points to compress")
    parser.add_argument("--epsilon", type=float, default=0.4, help="filter precision width")
    parser.add_argument("--sweeps", type=int, default=3, help="rolling sweeps to time")
    parser.add_argument("--viewports", type=int, default=25, help="zoom viewports to time")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--floor", type=float, default=10.0, help="asserted rolling speedup floor"
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="report only; do not enforce the floor"
    )
    args = parser.parse_args(argv)

    root = Path(tempfile.mkdtemp(prefix="bench-rolling-zoom-"))
    try:
        store = build_store(root / "store", args.points, args.epsilon, args.seed)
        entry = store.describe("s")
        blocks = len(entry.blocks)
        assert blocks >= MIN_BLOCKS, f"workload too small: {blocks} blocks < {MIN_BLOCKS}"
        print(
            f"stream: {args.points:,} points -> {entry.recordings:,} recordings "
            f"across {blocks} index blocks"
        )

        decode_r, planner_r, windows = bench_rolling(store, args.sweeps)
        rolling_speedup = decode_r / planner_r if planner_r else float("inf")
        print(
            f"\nrolling sweep ({windows} windows x {args.sweeps} sweeps, step = window/4):\n"
            f"  per-window decode : {decode_r * 1e3:9.1f} ms\n"
            f"  planner           : {planner_r * 1e3:9.1f} ms\n"
            f"  speedup           : {rolling_speedup:9.1f}x  "
            f"(answers match within {TOLERANCE:g})"
        )

        decode_z, pyramid_z, viewports = bench_zoom(store, args.viewports, args.seed)
        zoom_speedup = decode_z / pyramid_z if pyramid_z else float("inf")
        print(
            f"\n{viewports} zoom viewports ({ZOOM_BUDGET}-cell budget):\n"
            f"  decode path : {decode_z * 1e3:9.1f} ms\n"
            f"  pyramid     : {pyramid_z * 1e3:9.1f} ms\n"
            f"  speedup     : {zoom_speedup:9.1f}x  "
            f"(<= 2 blocks decoded per viewport, asserted)"
        )

        path = write_bench_json(
            "rolling_zoom",
            {
                "points": args.points,
                "recordings": entry.recordings,
                "blocks": blocks,
                "rolling_windows": windows,
                "rolling_sweeps": args.sweeps,
                "decode_rolling_seconds": decode_r,
                "planner_rolling_seconds": planner_r,
                "rolling_speedup": rolling_speedup,
                "zoom_viewports": viewports,
                "zoom_budget": ZOOM_BUDGET,
                "decode_zoom_seconds": decode_z,
                "pyramid_zoom_seconds": pyramid_z,
                "zoom_speedup": zoom_speedup,
                "asserted_floor": None if args.no_assert else args.floor,
            },
        )
        print(f"results written to {path}")

        if not args.no_assert and rolling_speedup < args.floor:
            print(f"FAIL: rolling composer is below the {args.floor:g}x speedup floor")
            return 1
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
