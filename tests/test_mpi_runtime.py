"""Discrete-event MPI runtime (profiling oracle) tests."""

import pytest

from repro.cloud.instance_types import get_instance_type
from repro.errors import MPIRuntimeError
from repro.mpi.profile import ApplicationProfile
from repro.mpi.timing import estimate_execution_hours
from tests.oracles.mpi_runtime import MPIRuntime

C3 = get_instance_type("c3.xlarge")


def run(program, n=4, itype=C3, **kw):
    return MPIRuntime(itype, n, program, **kw).run()


class TestPointToPoint:
    def test_ring_pass(self):
        def program(mpi):
            nxt = (mpi.rank + 1) % mpi.size
            prv = (mpi.rank - 1) % mpi.size
            yield from mpi.send(nxt, 1024, payload=mpi.rank)
            got = yield from mpi.recv(prv)
            return got

        st = run(program, n=4)
        assert st.rank_results == (3, 0, 1, 2)

    def test_send_before_recv_buffers(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, 8, payload="hello")
                return None
            yield from mpi.compute(1.0)  # rank 1 is late to the recv
            return (yield from mpi.recv(0))

        st = run(program, n=2)
        assert st.rank_results[1] == "hello"

    def test_recv_before_send_parks(self):
        def program(mpi):
            if mpi.rank == 1:
                return (yield from mpi.recv(0))
            yield from mpi.compute(2.0)
            yield from mpi.send(1, 8, payload=42)
            return None

        st = run(program, n=2)
        assert st.rank_results[1] == 42
        assert st.wall_seconds > 0

    def test_tags_keep_streams_separate(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, 8, payload="a", tag=1)
                yield from mpi.send(1, 8, payload="b", tag=2)
                return None
            second = yield from mpi.recv(0, tag=2)
            first = yield from mpi.recv(0, tag=1)
            return (first, second)

        st = run(program, n=2)
        assert st.rank_results[1] == ("a", "b")

    def test_transfer_takes_time(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, 100e6)  # 100 MB
            else:
                yield from mpi.recv(0)

        st = run(program, n=2, itype=get_instance_type("m1.small"))
        assert st.wall_seconds > 0.5

    def test_deadlock_detected(self):
        def program(mpi):
            # Everyone receives; nobody sends.
            yield from mpi.recv((mpi.rank + 1) % mpi.size)

        with pytest.raises(MPIRuntimeError, match="deadlock"):
            run(program, n=2)

    def test_invalid_peer(self):
        def program(mpi):
            yield from mpi.send(99, 8)

        with pytest.raises(MPIRuntimeError):
            run(program, n=2)


class TestCollectives:
    def test_allreduce_sum(self):
        def program(mpi):
            return (yield from mpi.allreduce(mpi.rank, nbytes=8))

        st = run(program, n=8)
        assert st.rank_results == (28,) * 8

    def test_allreduce_max(self):
        def program(mpi):
            return (yield from mpi.allreduce(mpi.rank, nbytes=8, op="max"))

        st = run(program, n=5)
        assert st.rank_results == (4,) * 5

    def test_bcast_from_root(self):
        def program(mpi):
            value = "root-data" if mpi.rank == 2 else None
            return (yield from mpi.bcast(value, nbytes=64, root=2))

        st = run(program, n=4)
        assert st.rank_results == ("root-data",) * 4

    def test_allgather(self):
        def program(mpi):
            return (yield from mpi.allgather(mpi.rank * 10, nbytes=8))

        st = run(program, n=3)
        assert st.rank_results == ([0, 10, 20],) * 3

    def test_alltoall_transpose(self):
        def program(mpi):
            outbox = [f"{mpi.rank}->{d}" for d in range(mpi.size)]
            return (yield from mpi.alltoall(outbox, nbytes=32))

        st = run(program, n=3)
        assert st.rank_results[1] == ["0->1", "1->1", "2->1"]

    def test_barrier_synchronises(self):
        def program(mpi):
            yield from mpi.compute(float(mpi.rank))  # staggered arrivals
            yield from mpi.barrier()
            return mpi.now

        st = run(program, n=4)
        times = st.rank_results
        assert max(times) - min(times) < 1e-9  # all released together

    def test_mismatched_collective_raises(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.barrier()
            else:
                yield from mpi.allreduce(1, nbytes=8)

        with pytest.raises(MPIRuntimeError, match="mismatch"):
            run(program, n=2)

    def test_collective_ordering_is_per_call_index(self):
        def program(mpi):
            a = yield from mpi.allreduce(1, nbytes=8)
            b = yield from mpi.allreduce(2, nbytes=8)
            return (a, b)

        st = run(program, n=3)
        assert st.rank_results == ((3, 6),) * 3


class TestProfileRecording:
    def test_counters_recorded(self):
        def program(mpi):
            yield from mpi.compute(2.0)
            if mpi.rank == 0:
                yield from mpi.send(1, 5000)
            elif mpi.rank == 1:
                yield from mpi.recv(0)
            yield from mpi.allreduce(1.0, nbytes=16)
            yield from mpi.io(1e6, sequential=True)
            yield from mpi.io(2e5, sequential=False)

        st = run(program, n=2)
        p = st.profile
        assert p.instr_giga == pytest.approx(4.0)
        assert p.p2p_bytes == 5000
        assert p.p2p_messages == 1
        assert p.collectives["allreduce"].count == 1
        assert p.collectives["allreduce"].total_bytes == 16
        assert p.io_seq_bytes == pytest.approx(2e6)
        assert p.io_rnd_bytes == pytest.approx(4e5)

    def test_profile_feeds_estimator(self):
        def program(mpi):
            yield from mpi.compute(10.0)
            yield from mpi.allreduce(1.0, nbytes=1e6)

        st = run(program, n=4)
        est_hours = estimate_execution_hours(st.profile, C3)
        # The analytic estimate should be within ~20% of the simulated
        # wall time for this simple program (imbalance factor aside).
        assert est_hours * 3600 == pytest.approx(st.wall_seconds, rel=0.25)

    def test_timeout_detection(self):
        def program(mpi):
            yield from mpi.compute(1e9)

        with pytest.raises(MPIRuntimeError, match="timed out"):
            MPIRuntime(C3, 2, program).run(max_seconds=1.0)
