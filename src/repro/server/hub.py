"""Per-stream broadcast hub backing live tail subscriptions.

Every chunk a live filter emits — the paper's compressed segments, exactly
what you'd ship over a constrained link — is published here and fanned out
to the stream's subscribers.  The hub is the bridge between two worlds:

* **Publishers** are session recording listeners, which fire on whatever
  thread ran ``StreamDB.append``: the event loop's own thread for the
  server's writes, which call the session on the loop, and any thread of
  an embedding program that appends to a session it also serves.
  :meth:`BroadcastHub.publish` is therefore thread-safe: it hops onto the
  event loop via ``call_soon_threadsafe`` from every thread, the loop's
  own included, and touches subscriber state only there.
* **Subscribers** are asyncio consumers (one pump task per subscribed
  connection) draining bounded queues of :class:`TailEvent`.

Because the session lock serializes appends per stream and
``call_soon_threadsafe`` preserves call order, every subscriber sees a
stream's events in emission order with gapless per-stream sequence numbers
— a subscriber can prove completeness from ``seq`` alone.

Slow subscribers are *evicted*, never buffered without bound: when a
subscriber's queue is full at publish time, its pending events are dropped
and the subscription is closed with ``reason="evicted"``.  A tail is a live
feed, not a replay log — a consumer that cannot keep up re-reads the store.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.types import Recording

__all__ = ["TailEvent", "Subscription", "BroadcastHub", "DEFAULT_TAIL_QUEUE"]

#: Default bound on a subscriber's undelivered events.
DEFAULT_TAIL_QUEUE = 64


@dataclass
class TailEvent:
    """One published batch of a stream's new recordings.

    ``seq`` counts the stream's events from 0 with no gaps; ``sealed`` marks
    the stream's final event (the end-of-stream recordings ``seal`` emitted,
    possibly empty).  ``None`` in a subscriber queue means the subscription
    closed — see :attr:`Subscription.close_reason`.
    """

    stream: str
    seq: int
    recordings: Sequence[Recording]
    sealed: bool = False


@dataclass
class Subscription:
    """One subscriber's bounded view of a stream's tail."""

    stream: str
    queue: "asyncio.Queue" = field(default_factory=asyncio.Queue)
    close_reason: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self.close_reason is not None

    async def get(self) -> Optional[TailEvent]:
        """Next event, or ``None`` once the subscription is closed."""
        if self.closed and self.queue.empty():
            return None
        event = await self.queue.get()
        return event

    def __aiter__(self):
        return self

    async def __anext__(self) -> TailEvent:
        event = await self.get()
        if event is None:
            raise StopAsyncIteration
        return event


class BroadcastHub:
    """Fan recording batches out to per-stream subscribers.

    Construct on the serving event loop (subscriber state lives there);
    publish from any thread.
    """

    def __init__(self, *, tail_queue: int = DEFAULT_TAIL_QUEUE) -> None:
        if tail_queue < 2:
            # A subscription needs room for at least one event plus the
            # close marker, or eviction could not be signalled at all.
            raise ValueError(f"tail_queue must be at least 2, got {tail_queue}")
        self._loop = asyncio.get_event_loop()
        self._tail_queue = tail_queue
        self._subscribers: Dict[str, List[Subscription]] = {}
        self._sequences: Dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Loop side
    # ------------------------------------------------------------------ #
    def subscribe(self, stream: str) -> Subscription:
        """Add a subscriber to ``stream``'s tail (loop thread only)."""
        if self._closed:
            raise RuntimeError("hub is closed")
        subscription = Subscription(
            stream=stream, queue=asyncio.Queue(maxsize=self._tail_queue)
        )
        self._subscribers.setdefault(stream, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscriber (idempotent, loop thread only)."""
        self._close_subscription(subscription, "unsubscribed")

    def subscriber_count(self, stream: str) -> int:
        return len(self._subscribers.get(stream, ()))

    def close(self) -> None:
        """Close every subscription with ``reason="shutdown"``."""
        self._closed = True
        for stream in list(self._subscribers):
            for subscription in list(self._subscribers.get(stream, ())):
                self._close_subscription(subscription, "shutdown")

    # ------------------------------------------------------------------ #
    # Publisher side (any thread)
    # ------------------------------------------------------------------ #
    def publish(self, stream: str, recordings: Sequence[Recording], sealed: bool) -> None:
        """Queue one batch for ``stream``'s subscribers.

        Thread-safe and non-blocking: the work happens on the event loop.
        Silently drops the batch once the loop is closed (server teardown
        races a final flush; the subscribers are gone either way).
        """
        batch = tuple(recordings)
        try:
            self._loop.call_soon_threadsafe(self._publish_on_loop, stream, batch, sealed)
        except RuntimeError:
            pass

    def _publish_on_loop(
        self, stream: str, recordings: Sequence[Recording], sealed: bool
    ) -> None:
        seq = self._sequences.get(stream, 0)
        self._sequences[stream] = seq + 1
        subscribers = self._subscribers.get(stream)
        if not subscribers:
            return
        event = TailEvent(stream=stream, seq=seq, recordings=recordings, sealed=sealed)
        for subscription in list(subscribers):
            try:
                subscription.queue.put_nowait(event)
            except asyncio.QueueFull:
                self._evict(subscription)
                continue
            if sealed:
                self._close_subscription(subscription, "sealed")

    def _evict(self, subscription: Subscription) -> None:
        # Drop everything the slow consumer has not taken — delivering a
        # gap would be worse than delivering nothing, and the seq numbers
        # make the gap visible — then close the subscription.
        while not subscription.queue.empty():
            subscription.queue.get_nowait()
        self._close_subscription(subscription, "evicted")

    def _close_subscription(self, subscription: Subscription, reason: str) -> None:
        if subscription.closed:
            return
        subscription.close_reason = reason
        subscribers = self._subscribers.get(subscription.stream)
        if subscribers and subscription in subscribers:
            subscribers.remove(subscription)
            if not subscribers:
                del self._subscribers[subscription.stream]
        try:
            subscription.queue.put_nowait(None)
        except asyncio.QueueFull:  # pragma: no cover - eviction clears first
            pass
