"""Typed, validated configuration specs for the :class:`StreamDB` session.

The session façade accepts its configuration as three small frozen
dataclasses instead of loose keyword soup:

* :class:`FilterSpec` — which filter compresses a stream and at what
  precision (absolute ε or a percentage of the signal range, resolved
  lazily against the workload),
* :class:`StorageSpec` — how the backing store is laid out (shard count,
  byte-level backend, block-index granularity),
* :class:`IngestSpec` — how workloads are driven through the ingest loop
  (chunking, worker processes, checkpointing cadence).

Every spec validates at construction, so a bad configuration fails before
any store directory is created or any worker process is spawned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.base import StreamFilter
from repro.core.epsilon import ErrorBound, epsilon_from_percent
from repro.core.registry import FILTER_REGISTRY, available_filters, create_filter
from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE
from repro.runtime.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.storage import StoreLike, open_store

__all__ = ["FilterSpec", "StorageSpec", "IngestSpec", "UNSET"]

EpsilonLike = Union[float, Sequence[float], ErrorBound]


class _Unset:
    """Singleton marking 'no per-call override' (distinct from ``None``,
    which explicitly disables an optional setting such as ``checkpoint``)."""

    _instance = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


#: Default for per-call override keywords: keep the session spec's value.
UNSET: Any = _Unset()


@dataclass(frozen=True)
class FilterSpec:
    """Which filter compresses a stream, and at what precision.

    Exactly one of ``epsilon`` (absolute width, scalar or per-dimension)
    and ``epsilon_percent`` (width as a percentage of the signal's value
    range, the form the paper's evaluation sweeps) must be given.  A
    percentage is resolved lazily — against the first workload the spec is
    applied to — via :meth:`resolve`.

    Attributes:
        name: Registered filter name (``"swing"``, ``"slide"``, …).
        epsilon: Absolute precision width.
        epsilon_percent: Precision width as % of the signal's value range.
        max_lag: Optional ``m_max_lag`` bound forwarded to the filter.
        options: Extra keyword options forwarded to the filter factory.
    """

    name: str = "slide"
    epsilon: Optional[EpsilonLike] = None
    epsilon_percent: Optional[float] = None
    max_lag: Optional[int] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in FILTER_REGISTRY:
            raise ValueError(
                f"unknown filter {self.name!r}; available: {', '.join(available_filters())}"
            )
        if (self.epsilon is None) == (self.epsilon_percent is None):
            raise ValueError("give exactly one of epsilon or epsilon_percent")
        if self.epsilon is not None and not isinstance(self.epsilon, ErrorBound):
            # Validate the widths now — the spec's contract is that a bad
            # configuration fails before any store directory is created —
            # using the same rules (finite, non-negative, 1-D, non-empty)
            # the filters apply via ErrorBound.
            try:
                widths = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
            except (TypeError, ValueError):
                raise ValueError(f"epsilon is not numeric: {self.epsilon!r}") from None
            ErrorBound(widths)
        if self.epsilon_percent is not None and self.epsilon_percent <= 0.0:
            raise ValueError(f"epsilon_percent must be positive, got {self.epsilon_percent}")
        if self.max_lag is not None and self.max_lag < 2:
            raise ValueError("max_lag must be at least 2 data points")
        object.__setattr__(self, "options", dict(self.options))

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(self, values=None) -> EpsilonLike:
        """Return the absolute precision width this spec stands for.

        Args:
            values: The workload's values, required when the spec was given
                as ``epsilon_percent`` (the percentage is taken of this
                signal's value range).

        Raises:
            ValueError: If ``epsilon_percent`` needs resolving but no
                workload values are available (e.g. a deferred-loader
                parallel ingest) — give an absolute ``epsilon`` there.
        """
        if self.epsilon is not None:
            return self.epsilon
        if values is None:
            raise ValueError(
                f"FilterSpec(epsilon_percent={self.epsilon_percent}) needs workload "
                "values to resolve against; give an absolute epsilon for workloads "
                "that are not materialized up front"
            )
        return epsilon_from_percent(self.epsilon_percent, np.asarray(values, dtype=float))

    def epsilon_list(self, values=None) -> list:
        """The resolved width as a plain list (the store catalog's format)."""
        resolved = self.resolve(values)
        resolved = getattr(resolved, "epsilons", resolved)  # unwrap an ErrorBound
        return [float(v) for v in np.atleast_1d(resolved)]

    def filter_kwargs(self) -> Dict[str, Any]:
        """Constructor keywords beyond ε (``max_lag`` plus ``options``)."""
        kwargs = dict(self.options)
        if self.max_lag is not None:
            kwargs["max_lag"] = self.max_lag
        return kwargs

    def create(self, values=None) -> StreamFilter:
        """Build a fresh, configured filter instance."""
        return create_filter(self.name, self.resolve(values), **self.filter_kwargs())


@dataclass(frozen=True)
class StorageSpec:
    """How the session's backing store is laid out.

    Attributes:
        shards: Shard the store across this many segment stores (``None``:
            a plain unsharded store; must match an existing sharded store).
        backend: Storage backend registry name (default block-log).
        block_records: Records per index block, forwarded to the backend.
        autoflush: Persist the catalog on every mutation instead of batched
            on :meth:`~repro.api.session.StreamDB.flush`/``close`` (the
            session default is batched persistence).
        mode: ``"w"`` (default) opens the store writable; ``"r"`` opens a
            read-only handle of an *existing* store — every mutating call
            raises :class:`PermissionError`.
        snapshot: With ``mode="r"``, pin the catalog generation at open
            time: reads serve a consistent point-in-time view even while a
            live ingester appends in another process
            (:meth:`~repro.storage.segment_store.SegmentStore.refresh`
            re-pins on demand).
        durable: fsync every catalog journal append and checkpoint (the
            default favours the seed's I/O profile; crash *consistency*
            holds either way, this upgrades crash *durability*).
    """

    shards: Optional[int] = None
    backend: Optional[str] = None
    block_records: Optional[int] = None
    autoflush: bool = False
    mode: str = "w"
    snapshot: bool = False
    durable: bool = False

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.block_records is not None and self.block_records < 1:
            raise ValueError(f"block_records must be positive, got {self.block_records}")
        if self.mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {self.mode!r}")
        if self.snapshot and self.mode != "r":
            raise ValueError("snapshot readers require mode='r'")

    def open(self, directory: Union[str, Path]) -> StoreLike:
        """Open (or create) the store this spec describes at ``directory``."""
        options: Dict[str, Any] = {"autoflush": self.autoflush}
        if self.backend is not None:
            options["backend"] = self.backend
        if self.block_records is not None:
            options["block_records"] = self.block_records
        if self.mode != "w":
            options["mode"] = self.mode
            options["snapshot"] = self.snapshot
        if self.durable:
            options["durable"] = True
        return open_store(directory, shards=self.shards, **options)


@dataclass(frozen=True)
class IngestSpec:
    """How :meth:`~repro.api.session.StreamDB.ingest` drives workloads.

    Attributes:
        chunk_size: Points per chunk on the vectorized batch path.
        workers: Worker processes for multi-stream (or split-dimension)
            ingestion; ``1`` runs inline.
        split_dimensions: Store a d-dimensional workload as one stream per
            dimension (``NAME/d0..NAME/d{d-1}``), the layout parallel
            ingestion partitions across workers.
        checkpoint: Checkpoint directory; ``None`` disables checkpointing.
        checkpoint_every: Chunks between checkpoints.
        resume: Resume each stream from its checkpoint when one exists.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE
    workers: int = 1
    split_dimensions: bool = False
    checkpoint: Optional[Union[str, Path]] = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    resume: bool = False

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be positive, got {self.checkpoint_every}")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory")

    def merged(self, **overrides) -> "IngestSpec":
        """A copy with the given overrides applied (re-validated).

        Overrides left at :data:`UNSET` keep this spec's value; an explicit
        ``None`` disables an optional setting (``checkpoint=None`` turns a
        session-default checkpoint off for one call).
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(f"unknown ingest option(s): {', '.join(sorted(unknown))}")
        changes = {}
        for key, value in overrides.items():
            if value is UNSET:
                continue
            if value is None and key != "checkpoint":
                # Only `checkpoint` is nullable; for every other setting
                # None keeps meaning "no override" (the historical calling
                # convention).
                continue
            changes[key] = value
        return replace(self, **changes) if changes else self
