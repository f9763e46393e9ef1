"""Generator-coroutine processes on top of :class:`~.engine.Engine`.

A *process* is a Python generator that yields:

* :class:`~.engine.Timeout` — sleep for a duration,
* :class:`~.engine.Event` — park until the event fires (the
  event's value is sent back into the generator),
* another :class:`Process` — park until that process finishes (its return
  value is sent back).

When the generator returns, the process's ``done`` event fires with the
return value, so processes compose like futures.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from .engine import Engine, Event, Timeout


class ProcessExit(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, reason: Any = None) -> None:
        super().__init__(reason)
        self.reason = reason


class Process:
    """A running simulated process."""

    def __init__(self, engine: Engine, gen: Generator[Any, Any, Any], name: str = "") -> None:
        self.engine = engine
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done: Event = engine.event(f"{self.name}.done")
        self._interrupted: Optional[ProcessExit] = None
        self._alive = True
        self._pending_timeout = None  # Handle of an in-flight sleep
        engine.call_soon(self._step, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, reason: Any = None) -> None:
        """Deliver :class:`ProcessExit` into the process at the current time.

        Interrupting a finished process is a no-op, which makes fan-out
        cancellation ("first replica to finish kills the rest") simple.
        """
        if not self._alive:
            return
        self._interrupted = ProcessExit(reason)
        # Wake the process immediately; whatever it was waiting on is
        # abandoned.  A pending sleep is cancelled outright so the stale
        # wakeup cannot stretch the simulation clock.
        if self._pending_timeout is not None:
            self._pending_timeout.cancel()
            self._pending_timeout = None
        self.engine.call_soon(self._step, None)

    def _step(self, send_value: Any) -> None:
        if not self._alive:
            return
        try:
            if self._interrupted is not None:
                exc, self._interrupted = self._interrupted, None
                yielded = self._gen.throw(exc)
            else:
                yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.done.succeed(stop.value)
            return
        except ProcessExit as exc:
            # Process chose not to handle the interrupt: it dies, and its
            # done event carries the interrupt reason.
            self._alive = False
            self.done.succeed(exc.reason)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            def wake() -> None:
                self._pending_timeout = None
                self._step(None)

            self._pending_timeout = self.engine.schedule(yielded.delay, wake)
        elif isinstance(yielded, Event):
            yielded.add_waiter(self._resume_if_alive)
        elif isinstance(yielded, Process):
            yielded.done.add_waiter(self._resume_if_alive)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def _resume_if_alive(self, value: Any) -> None:
        # An interrupt may have raced with the wakeup; the interrupt wins
        # and this wakeup is dropped (the generator already moved on).
        if self._alive and self._interrupted is None:
            self._step(value)
