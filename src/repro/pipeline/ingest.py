"""The summary of one bulk ingestion run.

:meth:`~repro.api.session.StreamDB.ingest` and
:meth:`~repro.api.session.StreamDB.aingest` return an :class:`IngestReport`
for the stream they wrote.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IngestReport"]


@dataclass(frozen=True)
class IngestReport:
    """Summary of one finished ingestion run.

    Attributes:
        filter_name: Name of the filter that compressed the stream.
        points: Data points ingested.
        recordings: Recordings emitted (including end-of-stream flushes).
        chunks: Chunks processed.
        compression_ratio: ``points / recordings`` (``inf`` when nothing was
            recorded, ``0`` for an empty stream).
        elapsed_seconds: Wall-clock time of the run's chunk loop.
        points_per_second: Ingestion throughput (``0`` for an empty run).
    """

    filter_name: str
    points: int
    recordings: int
    chunks: int
    compression_ratio: float
    elapsed_seconds: float

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.points / self.elapsed_seconds
