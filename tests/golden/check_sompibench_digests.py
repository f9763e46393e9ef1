#!/usr/bin/env python3
"""Fail when a sompibench workload's output digest differs from the
committed golden value.

Run from the repository root::

    python3 tests/golden/check_sompibench_digests.py [workload ...]

Each workload runs once as ``sompibench/run.py --workload W --seed S
--seconds 1 --trace 0``; the digest covers the first pass only, so the
run length does not change it.  Exit status 1 on any mismatch or failed
run, 0 when every digest matches.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("sompibench_digests.json")


def run_digest(workload: str, seed: int) -> str:
    """The digest one sompibench run prints, or "" if it printed none."""
    proc = subprocess.run(
        [sys.executable, "sompibench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True,
    )
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == "digest":
            return fields[1] if proc.returncode == 0 else ""
    return ""


def main(argv: list) -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    workloads = argv or sorted(golden["digests"])
    bad = 0
    for workload in workloads:
        want = golden["digests"][workload]
        got = run_digest(workload, golden["seed"])
        ok = got == want
        bad += not ok
        print(f"{workload:>14}: {got or '(no digest)'} "
              f"{'ok' if ok else f'!= golden {want}'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
