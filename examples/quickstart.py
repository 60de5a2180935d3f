"""Quickstart: the StreamDB session, then the filter layer underneath.

Run with::

    python examples/quickstart.py

The script first runs the paper's whole flow — compress, archive, query —
through one ``repro.open(...)`` session.  It then drops down a layer:
compresses a small random-walk signal with the four filters compared in the
paper (cache, linear, swing, slide), reconstructs the receiver-side
approximation and prints the compression ratio and error of each filter,
ending with the incremental (point-by-point) API.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import repro
from repro import PAPER_FILTERS, SlideFilter, create_filter, reconstruct
from repro.data.random_walk import RandomWalkConfig, random_walk
from repro.metrics.error import error_profile


def session_demo() -> None:
    """Compress, archive and query one stream through the session façade."""
    times, values = random_walk(
        RandomWalkConfig(length=5_000, decrease_probability=0.5, max_delta=0.5, seed=3)
    )
    with tempfile.TemporaryDirectory() as workdir:
        with repro.open(
            Path(workdir) / "archive",
            filter=repro.FilterSpec("slide", epsilon_percent=2),
        ) as db:
            report = db.ingest("walk", times, values)
            aggregate = db.aggregate("walk", float(times[500]), float(times[-500]))
            print("StreamDB session demo (slide filter, epsilon = 2% of range):")
            print(f"  points ingested    : {report.points}")
            print(f"  recordings stored  : {report.recordings}")
            print(f"  compression ratio  : {report.compression_ratio:.2f}")
            print(f"  range mean/min/max : {aggregate.mean:.3f} / "
                  f"{aggregate.minimum:.3f} / {aggregate.maximum:.3f}")
    print()


def batch_demo() -> None:
    """Compress a whole in-memory signal with each of the paper's filters."""
    times, values = random_walk(
        RandomWalkConfig(length=2_000, decrease_probability=0.4, max_delta=1.0, seed=7)
    )
    epsilon = 0.5  # absolute precision width (same units as the signal)

    print(f"Signal: {len(times)} points, precision width = {epsilon}")
    print(f"{'filter':<10} {'recordings':>10} {'ratio':>8} {'mean err':>9} {'max err':>9}")
    for name in PAPER_FILTERS:
        stream_filter = create_filter(name, epsilon)
        result = stream_filter.process(zip(times, values))
        approximation = reconstruct(result)
        profile = error_profile(approximation, times, values)
        print(
            f"{name:<10} {result.recording_count:>10d} {result.compression_ratio:>8.2f} "
            f"{profile.mean_absolute:>9.3f} {profile.max_absolute:>9.3f}"
        )
    print()


def streaming_demo() -> None:
    """Feed points one by one, transmitting recordings as they are produced."""
    epsilon = 0.5
    slide = SlideFilter(epsilon)
    rng = np.random.default_rng(11)

    print("Streaming demo (slide filter): '.' = filtered out, 'R' = recording(s) emitted")
    observed = []
    value = 0.0
    transmitted = []
    for t in range(200):
        value += rng.uniform(-1.0, 1.0)
        observed.append((float(t), value))
        recordings = slide.feed(float(t), value)
        transmitted += recordings
        print("R" if recordings else ".", end="")
    transmitted += slide.finish()
    print()

    approximation = reconstruct(transmitted)
    print(
        f"points = 200, recordings transmitted = {len(transmitted)}, "
        f"compression ratio = {200 / len(transmitted):.2f}"
    )
    print(
        f"max reconstruction error = {approximation.max_absolute_error(observed):.3f} "
        f"(guaranteed <= {epsilon})"
    )


if __name__ == "__main__":
    session_demo()
    batch_demo()
    streaming_demo()
