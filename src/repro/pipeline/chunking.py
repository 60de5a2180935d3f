"""Chunking helpers for the batch ingestion pipeline.

Streams arrive either as one pair of large arrays (offline replay of a
recorded signal) or as a sequence of already-chunked array pairs (live
ingestion).  :func:`iter_chunks` normalizes the first form into the second;
:func:`normalize_chunk` validates and coerces one chunk into the
``(times, values)`` float arrays the filters' batch fast path expects.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.base import check_finite

__all__ = ["DEFAULT_CHUNK_SIZE", "iter_chunks", "normalize_chunk"]

#: Default number of points per chunk.  Large enough to amortize the
#: per-chunk NumPy dispatch overhead, small enough to keep the temporary
#: candidate-slope arrays comfortably inside the CPU cache.
DEFAULT_CHUNK_SIZE = 4096


def normalize_chunk(times, values) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce one chunk into ``(times (n,), values (n, d))`` float64 arrays.

    Raises:
        ValueError: If the shapes are inconsistent or a time or value is NaN
            or infinite (:func:`repro.core.base.check_finite`).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"chunk times must be a 1-D array, got shape {times.shape}")
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    elif values.ndim != 2:
        raise ValueError(f"chunk values must have shape (n,) or (n, d), got {values.shape}")
    if values.shape[0] != times.shape[0]:
        raise ValueError(
            f"chunk times and values disagree on length: {times.shape[0]} vs {values.shape[0]}"
        )
    check_finite(times, values)
    return times, values


def iter_chunks(times, values, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[
    Tuple[np.ndarray, np.ndarray]
]:
    """Yield ``(times, values)`` chunk views of at most ``chunk_size`` points.

    The yielded arrays are views into the input (no copies are made).

    Raises:
        ValueError: If ``chunk_size`` is not positive or shapes disagree.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    times, values = normalize_chunk(times, values)
    for start in range(0, times.shape[0], chunk_size):
        stop = start + chunk_size
        yield times[start:stop], values[start:stop]
