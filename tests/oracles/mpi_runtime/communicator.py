"""Discrete-event MPI communicator.

Rank programs are generator coroutines scheduled on the
:class:`~.engine.Engine`.  Each communication primitive is a
generator the program drives with ``yield from``; time advances by the
network model's transfer costs.

Semantics (deliberately simple, MPI-shaped):

* ``send`` is synchronous-ish: the sender is occupied for the transfer
  time; the message becomes *available* to the receiver when the
  transfer completes.
* ``recv`` requires an explicit source and tag (the NPB kernels always
  know their peers); it parks until a matching message is delivered.
* Collectives match by call order: every rank's ``k``-th collective must
  be the same operation — a mismatch raises
  :class:`~repro.errors.MPIRuntimeError`, like a real MPI would deadlock
  or abort.  The collective completes ``collective_time(...)`` after the
  last rank arrives, and all ranks resume together.

The communicator doubles as the profiler: every primitive bumps the TAU
counters from which :class:`~repro.mpi.profile.ApplicationProfile` is
assembled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import MPIRuntimeError
from repro.mpi.network import ClusterShape, NetworkModel
from repro.mpi.profile import ApplicationProfile, CollectiveCounts

from .costs import collective_time, p2p_seconds
from .engine import Engine, Event, Timeout


@dataclass
class _Mailbox:
    messages: deque = field(default_factory=deque)  # (deliver_at, payload)
    waiters: deque = field(default_factory=deque)  # Event


@dataclass
class _CollectiveState:
    name: str
    nbytes: float
    values: Dict[int, Any] = field(default_factory=dict)
    arrived: int = 0
    release: Optional[Event] = None


_REDUCE_OPS: Dict[str, Callable[[List[Any]], Any]] = {
    "sum": lambda vs: sum(vs),
    "max": lambda vs: max(vs),
    "min": lambda vs: min(vs),
    "prod": lambda vs: _prod(vs),
}


def _prod(values: List[Any]) -> Any:
    out = values[0]
    for v in values[1:]:
        out = out * v
    return out


class Request:
    """Handle of a non-blocking operation (``isend``/``irecv``).

    ``wait()`` is a generator the rank program drives with ``yield
    from``; ``test()`` is an immediate completion probe.
    """

    def __init__(self, engine: Engine, name: str) -> None:
        self._event = engine.event(name)

    def _complete(self, value: Any = None) -> None:
        self._event.succeed(value)

    def test(self) -> bool:
        return self._event.fired

    def wait(self) -> Generator[Any, Any, Any]:
        value = yield self._event
        return value


class SimCommunicator:
    """COMM_WORLD of one simulated MPI job."""

    def __init__(self, engine: Engine, shape: ClusterShape) -> None:
        self.engine = engine
        self.shape = shape
        self.network = NetworkModel(shape)
        self.size = shape.n_processes
        self._boxes: Dict[Tuple[int, int, int], _Mailbox] = {}
        self._coll_states: Dict[int, _CollectiveState] = {}
        self._coll_counter: List[int] = [0] * self.size
        # Profile counters
        self.instr_giga = 0.0
        self.p2p_bytes = 0.0
        self.p2p_messages = 0
        self.coll_counts: Dict[str, CollectiveCounts] = {}
        self.io_seq_bytes = 0.0
        self.io_rnd_bytes = 0.0

    def handle(self, rank: int) -> "RankHandle":
        if not 0 <= rank < self.size:
            raise MPIRuntimeError(f"rank {rank} outside [0, {self.size})")
        return RankHandle(self, rank)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def _box(self, src: int, dst: int, tag: int) -> _Mailbox:
        return self._boxes.setdefault((src, dst, tag), _Mailbox())

    def send(
        self, src: int, dst: int, tag: int, nbytes: float, payload: Any = None
    ) -> Generator[Any, Any, None]:
        if not 0 <= dst < self.size:
            raise MPIRuntimeError(f"send to invalid rank {dst}")
        transfer = p2p_seconds(self.network, src, dst, nbytes)
        deliver_at = self.engine.now + transfer
        self.p2p_bytes += nbytes
        self.p2p_messages += 1
        box = self._box(src, dst, tag)
        if box.waiters:
            box.waiters.popleft().succeed((deliver_at, payload))
        else:
            box.messages.append((deliver_at, payload))
        if transfer > 0:
            yield Timeout(transfer)

    def isend(
        self, src: int, dst: int, tag: int, nbytes: float, payload: Any = None
    ) -> Request:
        """Non-blocking send: the sender continues immediately; the
        request completes when the transfer finishes."""
        if not 0 <= dst < self.size:
            raise MPIRuntimeError(f"isend to invalid rank {dst}")
        transfer = p2p_seconds(self.network, src, dst, nbytes)
        deliver_at = self.engine.now + transfer
        self.p2p_bytes += nbytes
        self.p2p_messages += 1
        box = self._box(src, dst, tag)
        if box.waiters:
            box.waiters.popleft().succeed((deliver_at, payload))
        else:
            box.messages.append((deliver_at, payload))
        request = Request(self.engine, f"isend({src}->{dst},tag={tag})")
        if transfer > 0:
            self.engine.schedule(transfer, request._complete)
        else:
            request._complete()
        return request

    def irecv(self, src: int, dst: int, tag: int) -> Request:
        """Non-blocking receive: the request completes (with the payload
        as its value) when a matching message has been delivered."""
        if not 0 <= src < self.size:
            raise MPIRuntimeError(f"irecv from invalid rank {src}")
        box = self._box(src, dst, tag)
        request = Request(self.engine, f"irecv({src}->{dst},tag={tag})")

        def deliver(item: tuple) -> None:
            deliver_at, payload = item
            delay = max(0.0, deliver_at - self.engine.now)
            if delay > 0:
                self.engine.schedule(delay, lambda: request._complete(payload))
            else:
                request._complete(payload)

        if box.messages:
            deliver(box.messages.popleft())
        else:
            event = self.engine.event(f"irecv-wait({src}->{dst},tag={tag})")
            event.add_waiter(deliver)
            box.waiters.append(event)
        return request

    def recv(self, src: int, dst: int, tag: int) -> Generator[Any, Any, Any]:
        if not 0 <= src < self.size:
            raise MPIRuntimeError(f"recv from invalid rank {src}")
        box = self._box(src, dst, tag)
        if box.messages:
            deliver_at, payload = box.messages.popleft()
        else:
            event = self.engine.event(f"recv({src}->{dst},tag={tag})")
            box.waiters.append(event)
            deliver_at, payload = yield event
        if deliver_at > self.engine.now:
            yield Timeout(deliver_at - self.engine.now)
        return payload

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective(
        self,
        rank: int,
        name: str,
        nbytes: float,
        value: Any = None,
        op: str | Callable[[List[Any]], Any] = "sum",
        root: int = 0,
    ) -> Generator[Any, Any, Any]:
        cid = self._coll_counter[rank]
        self._coll_counter[rank] += 1
        state = self._coll_states.get(cid)
        if state is None:
            state = _CollectiveState(name=name, nbytes=nbytes)
            state.release = self.engine.event(f"coll#{cid}:{name}")
            self._coll_states[cid] = state
        elif state.name != name:
            raise MPIRuntimeError(
                f"collective mismatch at op #{cid}: rank {rank} called "
                f"{name!r} but another rank called {state.name!r}"
            )
        state.values[rank] = value
        state.arrived += 1
        if state.arrived == self.size:
            duration = collective_time(
                name,
                self.size,
                state.nbytes,
                self.network.effective_alpha(),
                self.network.effective_beta(),
            )
            result = self._combine(state, op, root)
            counts = self.coll_counts.get(name, CollectiveCounts(0.0, 0.0))
            self.coll_counts[name] = CollectiveCounts(
                counts.total_bytes + state.nbytes, counts.count + 1.0
            )
            del self._coll_states[cid]
            release = state.release
            self.engine.schedule(duration, lambda: release.succeed(result))
        result = yield state.release
        return _per_rank_result(state.name, result, rank)

    def _combine(
        self,
        state: _CollectiveState,
        op: str | Callable[[List[Any]], Any],
        root: int,
    ) -> Any:
        values = [state.values.get(r) for r in range(self.size)]
        if state.name in ("allreduce", "reduce"):
            fn = _REDUCE_OPS[op] if isinstance(op, str) else op
            present = [v for v in values if v is not None]
            return fn(present) if present else None
        if state.name == "bcast":
            return values[root]
        if state.name in ("allgather", "gather"):
            return values
        if state.name == "alltoall":
            # values[src] is a per-destination list; result[dst][src].
            return values
        return None  # barrier, scatter (payload-free in this model)

    # ------------------------------------------------------------------
    # Local work
    # ------------------------------------------------------------------
    def compute(self, giga_instructions: float) -> Generator[Any, Any, None]:
        if giga_instructions < 0:
            raise MPIRuntimeError("negative compute amount")
        self.instr_giga += giga_instructions
        seconds = giga_instructions / self.shape.itype.core_speed
        if seconds > 0:
            yield Timeout(seconds)

    def io(
        self, nbytes: float, sequential: bool = True
    ) -> Generator[Any, Any, None]:
        if nbytes < 0:
            raise MPIRuntimeError("negative io amount")
        if sequential:
            self.io_seq_bytes += nbytes
            effective = nbytes
        else:
            self.io_rnd_bytes += nbytes
            effective = 3.0 * nbytes
        disk_bps = (
            self.shape.itype.disk_mbps * 1024.0**2 / self.shape.procs_per_instance
        )
        seconds = effective / disk_bps
        if seconds > 0:
            yield Timeout(seconds)

    # ------------------------------------------------------------------
    def to_profile(
        self, name: str, memory_gb_per_process: float = 0.1
    ) -> ApplicationProfile:
        """Snapshot the recorded counters as an application profile."""
        return ApplicationProfile(
            name=name,
            n_processes=self.size,
            instr_giga=self.instr_giga,
            p2p_bytes=self.p2p_bytes,
            p2p_messages=float(self.p2p_messages),
            collectives=dict(self.coll_counts),
            io_seq_bytes=self.io_seq_bytes,
            io_rnd_bytes=self.io_rnd_bytes,
            memory_gb_per_process=memory_gb_per_process,
        )


def _per_rank_result(name: str, result: Any, rank: int) -> Any:
    if name == "alltoall" and result is not None:
        # result is values[src][dst]; this rank receives column `rank`.
        return [
            None if row is None else row[rank] for row in result
        ]
    return result


@dataclass(frozen=True)
class RankHandle:
    """Rank-bound facade passed to rank programs."""

    comm: SimCommunicator
    rank: int

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def now(self) -> float:
        return self.comm.engine.now

    def send(self, dst: int, nbytes: float, payload: Any = None, tag: int = 0):
        return self.comm.send(self.rank, dst, tag, nbytes, payload)

    def recv(self, src: int, tag: int = 0):
        return self.comm.recv(src, self.rank, tag)

    def isend(self, dst: int, nbytes: float, payload: Any = None, tag: int = 0) -> Request:
        return self.comm.isend(self.rank, dst, tag, nbytes, payload)

    def irecv(self, src: int, tag: int = 0) -> Request:
        return self.comm.irecv(src, self.rank, tag)

    def sendrecv(
        self,
        dst: int,
        nbytes: float,
        src: int,
        payload: Any = None,
        tag: int = 0,
    ):
        """Exchange with two peers without ordering deadlock: post the
        receive, send non-blockingly, then wait for both."""

        def gen():
            rreq = self.irecv(src, tag)
            sreq = self.isend(dst, nbytes, payload, tag)
            got = yield from rreq.wait()
            yield from sreq.wait()
            return got

        return gen()

    def barrier(self):
        return self.comm.collective(self.rank, "barrier", 0.0)

    def bcast(self, value: Any, nbytes: float, root: int = 0):
        return self.comm.collective(self.rank, "bcast", nbytes, value, root=root)

    def reduce(self, value: Any, nbytes: float, op="sum", root: int = 0):
        return self.comm.collective(self.rank, "reduce", nbytes, value, op, root)

    def allreduce(self, value: Any, nbytes: float, op="sum"):
        return self.comm.collective(self.rank, "allreduce", nbytes, value, op)

    def allgather(self, value: Any, nbytes: float):
        return self.comm.collective(self.rank, "allgather", nbytes, value)

    def alltoall(self, values: List[Any], nbytes: float):
        return self.comm.collective(self.rank, "alltoall", nbytes, values)

    def compute(self, giga_instructions: float):
        return self.comm.compute(giga_instructions)

    def io(self, nbytes: float, sequential: bool = True):
        return self.comm.io(nbytes, sequential)
