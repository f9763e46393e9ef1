"""IS — Integer Sort (communication-intensive).

Bucket sort of uniformly random keys: each iteration histograms local
keys (cheap), allreduces the bucket counts, then redistributes every key
to its bucket owner with an all-to-all-v.  Arithmetic is trivial; the
exchange *is* the kernel.
"""

from __future__ import annotations

from ..mpi.profile import ApplicationProfile, CollectiveCounts
from .base import MPIApplication, WorkloadCategory
from .npb import IS_KEYS


class IS(MPIApplication):
    name = "IS"
    category = WorkloadCategory.COMMUNICATION

    ITERATIONS = 40
    #: Exchanges per iteration (key redistribution + verification pass).
    EXCHANGES_PER_ITER = 60
    #: Instructions per key per iteration (histogram + rank computation).
    INSTR_PER_KEY = 600.0
    BYTES_PER_KEY = 4.0
    MEMORY_GB_B = 8.0

    def single_run_profile(self) -> ApplicationProfile:
        keys = IS_KEYS[self.problem_class]
        vol = keys / IS_KEYS["B"]
        n = self.n_processes
        keys_per_proc = keys / n
        n_exchanges = self.ITERATIONS * self.EXCHANGES_PER_ITER
        return ApplicationProfile(
            name=f"IS.{self.problem_class}",
            n_processes=n,
            instr_giga=self.INSTR_PER_KEY * keys * self.ITERATIONS / 1e9,
            collectives={
                "alltoall": CollectiveCounts(
                    keys_per_proc * self.BYTES_PER_KEY * 2.0 * n_exchanges,
                    float(n_exchanges),
                ),
                "allreduce": CollectiveCounts(
                    # bucket-count reduction: 1024 buckets x 4 bytes
                    4096.0 * self.ITERATIONS,
                    float(self.ITERATIONS),
                ),
            },
            memory_gb_per_process=self.MEMORY_GB_B * vol / n,
        )
