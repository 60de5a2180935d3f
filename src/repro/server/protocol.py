"""Wire protocol of the StreamDB server: length-prefixed, codec-tagged frames.

Every message — request, response, or server push — travels as one frame::

    +----------------+-------+---------------------------+
    | length (4B BE) | codec | payload (length-1 bytes)  |
    +----------------+-------+---------------------------+

``length`` counts the codec byte plus the payload; it may not exceed
:data:`MAX_FRAME`.  Two codecs exist, and a connection speaks ``J`` until
its ``hello`` asks for another one:

* ``b"J"`` — the payload is one UTF-8 JSON object.  Every float64 array of
  the body rides as a (nested) JSON number list.  Python's ``json`` writes
  ``repr``-style shortest-round-trip literals, so every value survives
  bit-identically (``NaN`` and ``±Infinity`` use Python's JSON extensions).
* ``b"A"`` — binary array frames::

      +-----------------------+-------------------+------------------------+
      | header length (4B BE) | JSON envelope     | array sections         |
      +-----------------------+-------------------+------------------------+

  The envelope is the body with every float64 array replaced by the
  placeholder ``{"$f8": shape}`` (``shape`` is ``[n]`` or ``[n, d]``).  The
  sections hold the arrays' raw little-endian float64 bytes, in the
  placeholders' document order, back to back up to the end of the frame.
  The envelope is padded with trailing spaces so that the first section
  starts 8-byte aligned.  The decoder checks the header length, every
  placeholder and shape, every section bound and that no bytes trail; any
  violation is a :class:`ProtocolError`.  Decoded arrays are zero-copy,
  read-only ``memoryview`` objects of format ``d`` and the sent shape.

One body schema serves both codecs: a body holds numpy arrays wherever the
schema below says *array*, and :func:`encode_frame` lifts each one into a
section (``A``) or a number list (``J``).  A decoded body holds a
``memoryview`` (``A``) or a list (``J``) in that place; ``np.asarray`` reads
either.  Bodies are dictionaries:

* **Requests** carry ``id`` (client-chosen, echoed back) and ``op`` plus the
  op's parameters.
* **Responses** echo ``id`` and carry ``ok``; failures add ``error`` with a
  machine-readable ``code`` (``throttle``, ``auth``, ``rate_limit``,
  ``ingest_failed``, ``unknown_stream``, ``bad_request``, ``internal``), a
  human ``message`` and, for the first two of those, ``retry_after``.
* **Pushes** (tail subscriptions) have no ``id``; they carry ``push`` so a
  client multiplexing one socket can route them.

Per op (request parameters → answer fields; ``?`` marks an optional one):

* ``hello``: ``codec?`` → ``server``, ``version``, ``codecs``, ``codec``,
  ``auth_required``.  It travels as ``J`` both ways; the codec it grants
  applies from the next frame on.
* ``auth``: ``token`` → ``streams``.  ``ping``, ``stats``, ``streams``: no
  parameters.
* ``ingest``: ``stream``, ``times`` array (n,), ``values`` array (n,) or
  (n, d) → ``accepted``, ``queued``.
* ``sync`` / ``seal``: ``stream`` → ``points`` / ``recordings``.
* ``describe``: ``stream`` → the stream's catalog fields plus ``live``.
* ``read``: ``stream``, ``start?``, ``end?`` → the recordings as three
  columns (:func:`recordings_to_wire`): ``times`` array (n,), ``values``
  array (n, d) and ``kinds``, a string of one kind code per recording.
* ``aggregate``: ``stream``, ``start?``, ``end?``, ``window?``, ``step?``,
  ``dimension?`` → ``aggregate`` array (6,), or with ``window`` ``windows``
  array (n, 6); columns as :class:`~repro.queries.aggregates.RangeAggregate`
  (:func:`aggregates_to_wire`).
* ``resample``: ``stream``, ``step``, ``start?``, ``end?`` → ``times``
  array (n,), ``values`` array (n, d).
* ``zoom``: ``stream``, ``start?``, ``end?``, ``max_points?``,
  ``dimension?`` → ``cells`` array (n, 8); columns as
  :class:`~repro.queries.pyramid.ZoomCell` (:func:`zoom_cells_to_wire`).
* ``crossings``: ``stream``, ``threshold``, ``start?``, ``end?``,
  ``dimension?`` → ``times`` array (n,).
* ``subscribe``: ``stream`` → ``subscription``; ``unsubscribe``:
  ``subscription``.  Each ``tail`` push carries ``subscription``,
  ``stream``, ``seq``, ``sealed`` and the new recordings as the three
  ``read`` columns; the final ``tail_end`` push carries ``reason``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import operator
import struct
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.core.types import Recording
from repro.queries.aggregates import RangeAggregate
from repro.queries.pyramid import ZoomCell
from repro.storage.backends.base import KIND_BY_CODE, RECORD_KINDS

__all__ = [
    "CODEC_ARRAYS",
    "CODEC_JSON",
    "CODECS",
    "MAX_FRAME",
    "FrameTooLarge",
    "ProtocolError",
    "encode_frame",
    "decode_body",
    "read_frame",
    "recordings_to_wire",
    "recordings_from_wire",
    "aggregates_to_wire",
    "aggregates_from_wire",
    "zoom_cells_to_wire",
    "zoom_cells_from_wire",
]

CODEC_ARRAYS = "A"
CODEC_JSON = "J"
#: Codecs this end speaks, preferred first.
CODECS = (CODEC_ARRAYS, CODEC_JSON)

#: Upper bound on a frame body; a length prefix beyond this is treated as a
#: corrupt or hostile stream, not an allocation request.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")
_PLACEHOLDER = "$f8"
_WIRE_FLOAT = np.dtype("<f8")
_NATIVE_FLOAT = np.dtype("=f8")
#: No dimension of an array section can exceed what fits in one frame.
_MAX_ITEMS = MAX_FRAME // _WIRE_FLOAT.itemsize


class ProtocolError(ReproError):
    """Raised on malformed frames: bad codec, oversized length, torn body."""


class FrameTooLarge(ProtocolError):
    """A message that would encode to a frame larger than :data:`MAX_FRAME`."""

    def __init__(self, size: int, limit: int) -> None:
        super().__init__(f"frame of {size} bytes exceeds MAX_FRAME")
        self.size = size
        self.limit = limit


def encode_frame(body: Dict, codec: str = CODEC_JSON) -> bytes:
    """Serialize one message into a wire frame (numpy arrays as float64)."""
    if codec == CODEC_JSON:
        listed = json.dumps(body, separators=(",", ":"), default=_wire_list)
        parts = [listed.encode("utf-8")]
    elif codec == CODEC_ARRAYS:
        sections: List[np.ndarray] = []

        def lift(node):
            sections.append(_wire_array(node))
            return {_PLACEHOLDER: list(sections[-1].shape)}

        header = json.dumps(body, separators=(",", ":"), default=lift).encode("utf-8")
        header += b" " * (-(_HEADER.size + len(header)) % _WIRE_FLOAT.itemsize)
        parts = [_HEADER.pack(len(header)), header, *sections]
    else:
        raise ProtocolError(f"unknown codec {codec!r}")
    size = 1 + sum(part.nbytes if isinstance(part, np.ndarray) else len(part) for part in parts)
    if size > MAX_FRAME:
        raise FrameTooLarge(size, MAX_FRAME)
    return b"".join([_HEADER.pack(size), codec.encode("ascii"), *parts])


def _wire_array(node) -> np.ndarray:
    """A body's ndarray as the C-ordered little-endian float64 it travels as."""
    if not isinstance(node, np.ndarray):
        raise TypeError(f"{type(node).__name__} is not wire-serializable")
    array = np.asarray(node, dtype=_WIRE_FLOAT, order="C")
    if array.ndim not in (1, 2):
        raise ProtocolError(f"arrays travel with 1 or 2 dimensions, not {array.ndim}")
    return array


def _wire_list(node) -> list:
    return _wire_array(node).tolist()


def decode_body(codec_byte: bytes, payload: bytes) -> Dict:
    """Deserialize a frame body given its codec tag.

    Raises:
        ProtocolError: On an unknown codec, undecodable JSON, a body that is
            not a dictionary, or a malformed array frame.
    """
    try:
        if codec_byte == b"J":
            body = json.loads(payload.decode("utf-8"))
        elif codec_byte == b"A":
            body = _decode_arrays(payload)
        else:
            raise ProtocolError(f"unknown codec byte {codec_byte!r}")
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from None
    if not isinstance(body, dict):
        raise ProtocolError(f"frame body must be a dict, got {type(body).__name__}")
    return body


def _decode_arrays(payload: bytes):
    if len(payload) < _HEADER.size:
        raise ProtocolError("array frame shorter than its header length")
    (header_size,) = _HEADER.unpack_from(payload)
    offset = _HEADER.size + header_size
    if offset > len(payload):
        raise ProtocolError(f"array frame header of {header_size} bytes runs past the frame")

    def section(node: Dict):
        # json calls this for every object in the order the objects close;
        # a placeholder holds no object, so sections come in document order.
        nonlocal offset
        if _PLACEHOLDER not in node:
            return node
        shape = node[_PLACEHOLDER]
        if (
            len(node) != 1
            or not isinstance(shape, list)
            or len(shape) not in (1, 2)
            or not all(type(size) is int and 0 <= size <= _MAX_ITEMS for size in shape)
        ):
            raise ProtocolError("malformed array placeholder")
        count = math.prod(shape)
        end = offset + count * _WIRE_FLOAT.itemsize
        if end > len(payload):
            raise ProtocolError(f"array section of shape {shape} overruns the frame")
        array = np.frombuffer(payload, _WIRE_FLOAT, count, offset)
        offset = end
        return memoryview(array.astype(_NATIVE_FLOAT, copy=False).reshape(shape))

    body = json.loads(payload[_HEADER.size : offset].decode("utf-8"), object_hook=section)
    if offset != len(payload):
        raise ProtocolError(f"{len(payload) - offset} bytes trail the array sections")
    return body


async def read_frame(reader: "asyncio.StreamReader") -> Optional[Dict]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    Raises:
        ProtocolError: On a torn header/body or an oversized length prefix.
    """
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(header))
        if not more:
            raise ProtocolError("connection closed mid-header")
        header += more
    (length,) = _HEADER.unpack(header)
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"invalid frame length {length}")
    try:
        blob = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    return decode_body(blob[:1], blob[1:])


# --------------------------------------------------------------------- #
# Answer columns (shared by server and client)
# --------------------------------------------------------------------- #
_KIND_CODES = {kind: str(code) for kind, code in RECORD_KINDS.items()}
_KINDS = {str(code): kind for code, kind in KIND_BY_CODE.items()}
_AGGREGATE_FIELDS = ("start", "end", "minimum", "maximum", "mean", "integral")
_ZOOM_FIELDS = _AGGREGATE_FIELDS + ("covered", "level")


def recordings_to_wire(recordings: Sequence[Recording]) -> Dict:
    """Recordings as ``times`` (n,), ``values`` (n, d) and ``kinds`` codes."""
    if not recordings:
        return {"times": np.empty(0), "values": np.empty((0, 0)), "kinds": ""}
    count = len(recordings)
    return {
        "times": np.fromiter((r.time for r in recordings), float, count),
        "values": np.concatenate([r.value for r in recordings]).reshape(count, -1),
        "kinds": "".join([_KIND_CODES[r.kind] for r in recordings]),
    }


def recordings_from_wire(body: Dict) -> List[Recording]:
    """Rebuild the recordings of a ``read`` answer or ``tail`` push."""
    times = np.asarray(body["times"], dtype=float).tolist()
    values = np.array(body["values"], dtype=float)  # one writable copy
    kinds = [_KINDS[code] for code in body["kinds"]]
    if not len(times) == len(values) == len(kinds):
        raise ProtocolError("recording columns disagree on length")
    return [Recording(*recording) for recording in zip(times, values, kinds)]


def _table(items: Sequence, fields: Sequence[str]) -> np.ndarray:
    flat = itertools.chain.from_iterable(map(operator.attrgetter(*fields), items))
    return np.fromiter(flat, float, len(items) * len(fields)).reshape(len(items), len(fields))


def _rows(raw, width: int) -> List[list]:
    return np.asarray(raw, dtype=float).reshape(-1, width).tolist()


def aggregates_to_wire(aggregates: Sequence[RangeAggregate]) -> np.ndarray:
    """Aggregates as an (n, 6) array in :class:`RangeAggregate` field order."""
    return _table(aggregates, _AGGREGATE_FIELDS)


def aggregates_from_wire(raw) -> List[RangeAggregate]:
    """Rebuild aggregates from an (n, 6) array or one (6,) row."""
    return [RangeAggregate(*row) for row in _rows(raw, len(_AGGREGATE_FIELDS))]


def zoom_cells_to_wire(cells: Sequence[ZoomCell]) -> np.ndarray:
    """Zoom cells as an (n, 8) array in :class:`ZoomCell` field order."""
    return _table(cells, _ZOOM_FIELDS)


def zoom_cells_from_wire(raw) -> List[ZoomCell]:
    """Rebuild zoom cells from an (n, 8) array."""
    return [ZoomCell(*row[:-1], int(row[-1])) for row in _rows(raw, len(_ZOOM_FIELDS))]
