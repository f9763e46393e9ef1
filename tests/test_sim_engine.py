"""Discrete-event engine tests."""

import pytest

from repro.errors import SimulationError
from tests.oracles.mpi_runtime import Engine, Timeout


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = Engine()
        log = []
        eng.schedule(5.0, lambda: log.append("b"))
        eng.schedule(1.0, lambda: log.append("a"))
        eng.schedule(9.0, lambda: log.append("c"))
        eng.run()
        assert log == ["a", "b", "c"]

    def test_stable_order_at_same_time(self):
        eng = Engine()
        log = []
        for i in range(5):
            eng.schedule(1.0, lambda i=i: log.append(i))
        eng.run()
        assert log == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        eng = Engine()
        seen = []
        eng.schedule(2.5, lambda: seen.append(eng.now))
        assert eng.run() == 2.5
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self):
        eng = Engine(start_time=10.0)
        seen = []
        eng.schedule_at(12.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [12.0]

    def test_call_soon_runs_at_current_time(self):
        eng = Engine()
        seen = []
        eng.schedule(3.0, lambda: eng.call_soon(lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [3.0]

    def test_nested_scheduling(self):
        eng = Engine()
        log = []

        def first():
            log.append(("first", eng.now))
            eng.schedule(2.0, lambda: log.append(("second", eng.now)))

        eng.schedule(1.0, first)
        eng.run()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        eng = Engine()
        log = []
        eng.schedule(1.0, lambda: log.append(1))
        eng.schedule(10.0, lambda: log.append(10))
        final = eng.run(until=5.0)
        assert log == [1]
        assert final == 5.0

    def test_until_with_empty_queue_advances_clock(self):
        eng = Engine()
        assert eng.run(until=42.0) == 42.0

    def test_resume_after_until(self):
        eng = Engine()
        log = []
        eng.schedule(10.0, lambda: log.append(10))
        eng.run(until=5.0)
        eng.run()
        assert log == [10]

    def test_max_events_guard(self):
        eng = Engine()

        def rearm():
            eng.schedule(0.0, rearm)

        eng.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)


class TestEvents:
    def test_event_delivers_value(self):
        eng = Engine()
        ev = eng.event("x")
        got = []
        ev.add_waiter(got.append)
        eng.schedule(1.0, lambda: ev.succeed(42))
        eng.run()
        assert got == [42]

    def test_waiter_after_fire_runs_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        got = []
        ev.add_waiter(got.append)
        eng.run()
        assert got == ["v"]

    def test_double_fire_is_error(self):
        eng = Engine()
        ev = eng.event("dup")
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_fire_is_error(self):
        eng = Engine()
        ev = eng.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_peek(self):
        eng = Engine()
        assert eng.peek() is None
        eng.schedule(3.0, lambda: None)
        assert eng.peek() == 3.0


class TestTimeout:
    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.1)

    def test_zero_timeout_ok(self):
        assert Timeout(0.0).delay == 0.0
