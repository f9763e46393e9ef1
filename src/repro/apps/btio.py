"""BTIO — BT with periodic solution output (IO-intensive).

Identical solver to BT plus a full solution dump every ``IO_EVERY``
iterations.  Aggregate disk bandwidth scales with the *number* of
instances, so a 128-instance m1.small fleet out-writes a 4-instance
cc2.8xlarge fleet by a wide margin — the paper's explanation for why
Marathe (locked to cc2.8xlarge) costs *more* than the on-demand baseline
on BTIO.
"""

from __future__ import annotations

from ..mpi.profile import ApplicationProfile
from .base import WorkloadCategory
from .npb import volume_factor
from .bt import BT


class BTIO(BT):
    name = "BTIO"
    category = WorkloadCategory.IO

    #: Dump the full solution every this many iterations.
    IO_EVERY = 5
    #: Bytes written per CLASS B dump (5 doubles per grid point, all ranks,
    #: plus the verification read-back pass).
    DUMP_BYTES_B = 3.0e9

    def single_run_profile(self) -> ApplicationProfile:
        base = super().single_run_profile()
        vol = volume_factor(self.problem_class)
        n_dumps = self.ITERATIONS // self.IO_EVERY
        io_bytes = self.DUMP_BYTES_B * vol * n_dumps
        return ApplicationProfile(
            name=f"BTIO.{self.problem_class}",
            n_processes=base.n_processes,
            instr_giga=base.instr_giga,
            p2p_bytes=base.p2p_bytes,
            p2p_messages=base.p2p_messages,
            collectives=base.collectives,
            io_seq_bytes=io_bytes,
            memory_gb_per_process=base.memory_gb_per_process,
        )
