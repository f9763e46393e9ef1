"""Scalar reference implementations kept only as parity oracles.

Production code never imports from here (``tests/test_src_imports.py``
guards that); the vectorised kernels in ``src/repro`` are the only
production path, and the parity tests compare them against these
sequential originals bit for bit.  ``mpi_runtime`` is the discrete-event
MPI runtime that executes each kernel's rank program, the oracle for the
shape of the analytic application profiles.
"""
