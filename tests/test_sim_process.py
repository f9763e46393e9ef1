"""Generator-coroutine process tests."""

import pytest

from repro.errors import SimulationError
from tests.oracles.mpi_runtime import Engine, Process, ProcessExit, Timeout


def test_timeout_advances_clock():
    eng = Engine()
    log = []

    def prog():
        yield Timeout(2.0)
        log.append(eng.now)
        yield Timeout(3.0)
        log.append(eng.now)

    Process(eng, prog())
    eng.run()
    assert log == [2.0, 5.0]


def test_return_value_on_done_event():
    eng = Engine()

    def prog():
        yield Timeout(1.0)
        return "answer"

    p = Process(eng, prog())
    eng.run()
    assert p.done.fired
    assert p.done.value == "answer"
    assert not p.alive


def test_wait_on_event_receives_value():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter():
        value = yield ev
        got.append((eng.now, value))

    Process(eng, waiter())
    eng.schedule(4.0, lambda: ev.succeed("ping"))
    eng.run()
    assert got == [(4.0, "ping")]


def test_wait_on_another_process():
    eng = Engine()

    def child():
        yield Timeout(3.0)
        return 99

    def parent():
        result = yield Process(eng, child(), name="child")
        return result + 1

    p = Process(eng, parent(), name="parent")
    eng.run()
    assert p.done.value == 100
    assert eng.now == 3.0


def test_interrupt_delivers_process_exit():
    eng = Engine()
    log = []

    def prog():
        try:
            yield Timeout(100.0)
        except ProcessExit as exc:
            log.append(exc.reason)

    p = Process(eng, prog())
    eng.schedule(1.0, lambda: p.interrupt("killed"))
    eng.run()
    assert log == ["killed"]
    assert eng.now == pytest.approx(1.0)


def test_unhandled_interrupt_finishes_process():
    eng = Engine()

    def prog():
        yield Timeout(100.0)

    p = Process(eng, prog())
    eng.schedule(2.0, lambda: p.interrupt("reason"))
    eng.run()
    assert not p.alive
    assert p.done.value == "reason"


def test_interrupt_finished_process_is_noop():
    eng = Engine()

    def prog():
        yield Timeout(1.0)
        return "done"

    p = Process(eng, prog())
    eng.run()
    p.interrupt("late")
    eng.run()
    assert p.done.value == "done"


def test_first_of_two_replicas_cancels_other():
    """The replication pattern: first finisher interrupts the rest."""
    eng = Engine()

    def replica(delay):
        yield Timeout(delay)
        return delay

    fast = Process(eng, replica(2.0), name="fast")
    slow = Process(eng, replica(10.0), name="slow")
    fast.done.add_waiter(lambda _v: slow.interrupt("beaten"))
    eng.run()
    assert fast.done.value == 2.0
    assert slow.done.value == "beaten"
    assert eng.now == pytest.approx(2.0)


def test_yield_garbage_raises():
    eng = Engine()

    def prog():
        yield "nonsense"

    Process(eng, prog())
    with pytest.raises(SimulationError):
        eng.run()


def test_zero_delay_process_chain():
    eng = Engine()
    order = []

    def prog(tag):
        order.append(tag)
        if False:  # pragma: no cover - make it a generator
            yield

    Process(eng, prog("a"))
    Process(eng, prog("b"))
    eng.run()
    assert order == ["a", "b"]
