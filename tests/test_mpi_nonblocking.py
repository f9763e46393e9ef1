"""Non-blocking point-to-point tests (isend/irecv/sendrecv)."""

import pytest

from repro.cloud.instance_types import get_instance_type
from tests.oracles.mpi_runtime import MPIRuntime

C3 = get_instance_type("c3.xlarge")
SMALL = get_instance_type("m1.small")


def run(program, n=2, itype=C3):
    return MPIRuntime(itype, n, program).run()


def test_isend_does_not_block_sender():
    log = {}

    def program(mpi):
        if mpi.rank == 0:
            req = mpi.isend(1, 200e6)  # 200 MB: a long transfer
            log["sender_free_at"] = mpi.now
            yield from mpi.compute(0.0)
            yield from req.wait()
            log["send_done_at"] = mpi.now
        else:
            got = yield from mpi.recv(0)
            log["recv_done_at"] = mpi.now

    run(program, itype=SMALL)
    assert log["sender_free_at"] == 0.0  # continued immediately
    assert log["send_done_at"] > 1.0  # but the wire time was real
    assert log["recv_done_at"] == pytest.approx(log["send_done_at"])


def test_irecv_completes_with_payload():
    def program(mpi):
        if mpi.rank == 0:
            req = mpi.irecv(1)
            value = yield from req.wait()
            return value
        yield from mpi.compute(1.0)
        yield from mpi.send(0, 64, payload="late-hello")
        return None

    stats = run(program)
    assert stats.rank_results[0] == "late-hello"


def test_request_test_probe():
    def program(mpi):
        if mpi.rank == 0:
            req = mpi.irecv(1)
            before = req.test()
            value = yield from req.wait()
            after = req.test()
            return (before, value, after)
        yield from mpi.compute(1.0)
        yield from mpi.send(0, 8, payload=5)
        return None

    stats = run(program)
    assert stats.rank_results[0] == (False, 5, True)


def test_sendrecv_ring_does_not_deadlock():
    """Every rank exchanges with both neighbours simultaneously — the
    classic pattern that deadlocks with naive blocking sends."""

    def program(mpi):
        nxt = (mpi.rank + 1) % mpi.size
        prv = (mpi.rank - 1) % mpi.size
        got = yield from mpi.sendrecv(nxt, 1024, prv, payload=mpi.rank)
        return got

    stats = run(program, n=8)
    assert stats.rank_results == tuple((r - 1) % 8 for r in range(8))


def test_overlap_compute_with_communication():
    """The point of isend: overlapping a big transfer with local work
    should take max(compute, transfer), not their sum."""

    def overlapped(mpi):
        if mpi.rank == 0:
            req = mpi.isend(1, 100e6)
            yield from mpi.compute(3.5 * 2.0)  # ~2 s on m1.small-like core
            yield from req.wait()
        else:
            yield from mpi.recv(0)

    def serial(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, 100e6)
            yield from mpi.compute(3.5 * 2.0)
        else:
            yield from mpi.recv(0)

    t_overlap = run(overlapped, itype=C3).wall_seconds
    t_serial = run(serial, itype=C3).wall_seconds
    assert t_overlap < t_serial


def test_invalid_peers_rejected():
    from repro.errors import MPIRuntimeError

    def program(mpi):
        mpi.isend(99, 8)
        yield from mpi.compute(0.0)

    with pytest.raises(MPIRuntimeError):
        run(program)
