"""repro — online piece-wise linear approximation of numerical streams.

A production-quality reproduction of *"Online Piece-wise Linear Approximation
of Numerical Streams with Precision Guarantees"* (Elmeleegy, Elmagarmid,
Cecchet, Aref and Zwaenepoel, VLDB 2009).

The package provides:

* the paper's **swing** and **slide** filters plus the **cache** and
  **linear** baselines (:mod:`repro.core`),
* receiver-side reconstruction and encoding (:mod:`repro.approximation`),
* a transmitter/receiver streaming substrate (:mod:`repro.streams`),
* synthetic workload generators and a sea-surface-temperature surrogate
  (:mod:`repro.data`),
* the chunked write path's building blocks — chunking and the buffered
  store sink (:mod:`repro.pipeline`),
* multi-process fan-out, async chunk sources and checkpoints built on
  snapshot/restorable filter state (:mod:`repro.runtime`),
* compression / error / timing metrics (:mod:`repro.metrics`),
* the experiment harness regenerating every figure of the paper's evaluation
  (:mod:`repro.evaluation`),
* related-work baselines used for ablations (:mod:`repro.extensions`), and
* **the session façade tying it all together** (:mod:`repro.api`):
  :func:`repro.open` returns a :class:`StreamDB` that ingests, archives and
  queries streams through one object.

Quick start::

    import numpy as np
    import repro

    times = np.arange(10_000.0)
    values = np.sin(times / 50.0)
    with repro.open("./archive", filter=repro.FilterSpec("slide", epsilon=0.05)) as db:
        db.ingest("sensor", times, values)
        agg = db.aggregate("sensor", 100.0, 5_000.0)
        print(agg.mean, agg.minimum, agg.maximum)

The filters remain directly usable for library-style workflows::

    from repro import SlideFilter, reconstruct

    result = SlideFilter(epsilon=0.05).process(zip(times, values))
    approx = reconstruct(result)
"""

from repro.api import FilterSpec, IngestSpec, StorageSpec, StreamDB, open
from repro.approximation import (
    PiecewiseConstantApproximation,
    PiecewiseLinearApproximation,
    reconstruct,
)
from repro.core import (
    PAPER_FILTERS,
    CacheFilter,
    DataPoint,
    DisconnectedLinearFilter,
    ErrorBound,
    FilterResult,
    FilterState,
    LinearFilter,
    MeanCacheFilter,
    MidrangeCacheFilter,
    Recording,
    RecordingKind,
    Segment,
    SlideFilter,
    StreamFilter,
    SwingFilter,
    available_filters,
    create_filter,
    epsilon_from_percent,
    paper_filters,
    register_filter,
    restore_filter,
)
from repro.pipeline import IngestReport, StoreSink
from repro.runtime import CheckpointManager, IngestCheckpoint, ParallelIngestor, StreamTask
from repro.storage import (
    DEFAULT_SHARDS,
    SegmentStore,
    ShardedStore,
    StoreLike,
    open_store,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # Session façade (repro.api).  `repro.open` is the documented entry
    # point but is deliberately NOT in __all__: a star import must never
    # shadow the builtin open() with a function that creates directories.
    "StreamDB",
    "FilterSpec",
    "StorageSpec",
    "IngestSpec",
    # Filters (repro.core)
    "StreamFilter",
    "CacheFilter",
    "MidrangeCacheFilter",
    "MeanCacheFilter",
    "LinearFilter",
    "DisconnectedLinearFilter",
    "SwingFilter",
    "SlideFilter",
    "ErrorBound",
    "epsilon_from_percent",
    "DataPoint",
    "Recording",
    "RecordingKind",
    "Segment",
    "FilterResult",
    "FilterState",
    "available_filters",
    "create_filter",
    "register_filter",
    "restore_filter",
    "paper_filters",
    "PAPER_FILTERS",
    # Reconstruction (repro.approximation)
    "PiecewiseLinearApproximation",
    "PiecewiseConstantApproximation",
    "reconstruct",
    # Ingestion (repro.pipeline / repro.runtime)
    "IngestReport",
    "StoreSink",
    "ParallelIngestor",
    "StreamTask",
    "CheckpointManager",
    "IngestCheckpoint",
    # Storage (repro.storage)
    "open_store",
    "SegmentStore",
    "ShardedStore",
    "StoreLike",
    "DEFAULT_SHARDS",
]
