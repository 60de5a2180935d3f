"""The chunked write path's building blocks.

The session (:meth:`repro.api.session.StreamDB.ingest`) drives a stream's
filter chunk by chunk through the
:meth:`~repro.core.base.StreamFilter.process_batch` fast path; this
subpackage holds what that loop uses: chunking helpers, the
:class:`~repro.pipeline.sinks.StoreSink` that archives a live stream's
recordings into a :class:`~repro.storage.segment_store.SegmentStore`, and
the :class:`~repro.pipeline.ingest.IngestReport` a bulk run returns.

Typical use goes through the session::

    import repro

    with repro.open("./archive", filter=repro.FilterSpec("slide", epsilon=0.25)) as db:
        report = db.ingest("sst", times, values, chunk_size=4096)
        print(report.points_per_second)
"""

from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE, iter_chunks, normalize_chunk
from repro.pipeline.ingest import IngestReport
from repro.pipeline.sinks import StoreSink

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "iter_chunks",
    "normalize_chunk",
    "IngestReport",
    "StoreSink",
]
