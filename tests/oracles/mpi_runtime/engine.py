"""Heap-based discrete-event engine.

The engine maintains a priority queue of ``(time, sequence, callback)``
entries.  Time is a ``float`` in whatever unit the caller chooses (the MPI
runtime uses seconds); the engine itself is unit-agnostic.  The
``sequence`` counter makes scheduling stable: events scheduled earlier at
the same timestamp fire first, which keeps simulations deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError


@dataclass
class Event:
    """A one-shot event that callbacks can wait on.

    An event starts *pending*; :meth:`succeed` fires it with an optional
    value and wakes every registered waiter.  Re-firing a fired event is an
    error — that invariably indicates a logic bug in the model.
    """

    engine: "Engine"
    name: str = ""
    _fired: bool = field(default=False, repr=False)
    _value: Any = field(default=None, repr=False)
    _waiters: list[Callable[[Any], None]] = field(default_factory=list, repr=False)

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} read before it fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, delivering ``value`` to all waiters."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.engine.call_soon(waiter, value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; runs immediately if already fired."""
        if self._fired:
            self.engine.call_soon(callback, self._value)
        else:
            self._waiters.append(callback)


class Timeout:
    """Sentinel yielded by processes to sleep for ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Handle:
    """Cancellation handle for a scheduled callback.

    Cancelled entries are dropped by the event loop *without* advancing
    the clock, so an interrupted process's stale wakeup cannot stretch
    the simulation's final time.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Engine:
    """The discrete-event loop.

    Usage::

        eng = Engine()
        eng.schedule(5.0, lambda: print("at t=5"))
        eng.run()
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Handle, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Handle:
        """Run ``callback`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = Handle()
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), handle, callback)
        )
        return handle

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Handle:
        """Run ``callback`` at absolute time ``when`` (>= now)."""
        return self.schedule(when - self._now, callback)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Handle:
        """Run ``callback(*args)`` at the current time, after pending events."""
        return self.schedule(0.0, lambda: callback(*args))

    def event(self, name: str = "") -> Event:
        """Create a fresh :class:`Event` bound to this engine."""
        return Event(self, name=name)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once simulation time would exceed this value (the clock is
            left at ``until``).  ``None`` runs until the queue is empty.
        max_events:
            Safety valve against runaway simulations.

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        try:
            while self._queue:
                when, _seq, handle, callback = self._queue[0]
                if handle.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and when > until:
                    self._now = until
                    break
                heapq.heappop(self._queue)
                if when < self._now:  # pragma: no cover - guarded by schedule()
                    raise SimulationError("time went backwards")
                self._now = when
                callback()
                self.events_processed += 1
                if self.events_processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock"
                    )
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` if queue is empty."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine(now={self._now:.6g}, pending={len(self._queue)})"
