#!/usr/bin/env python3
"""Fail when ``runner --quick`` reports any table cell other than the
committed golden value.

Run from the repository root::

    python3 tests/golden/check_runner_quick.py

The script runs ``python -m repro.experiments.runner --quick --json``
into a temporary directory and compares that output.  Columns named in
``WALL_COLUMNS`` hold wall-clock seconds and are dropped by name before
the comparison; every other cell, title, column name and note must
equal ``runner_quick.json`` exactly (floats compare by value, so a
one-ulp change fails).  Exit status 1 on any difference or a failed
run, 0 when the output matches.

A change that alters a reported table on purpose rewrites
``runner_quick.json`` in the same commit: the ``--json`` output of a
``--quick`` run, passed through ``golden_view``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("runner_quick.json")
REPO = Path(__file__).resolve().parents[2]

#: Column names whose cells are wall-clock timings.
WALL_COLUMNS = ("wall s",)


def golden_view(doc: dict) -> dict:
    """``doc`` without its wall-clock columns."""
    tables = []
    for table in doc["tables"]:
        keep = [i for i, name in enumerate(table["columns"])
                if name not in WALL_COLUMNS]
        tables.append({
            **table,
            "columns": [table["columns"][i] for i in keep],
            "rows": [[row[i] for i in keep] for row in table["rows"]],
        })
    return {**doc, "tables": tables}


def run_quick() -> dict:
    """The ``--json`` document of a fresh ``runner --quick`` process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "quick.json"
        env = dict(os.environ)
        src = str(REPO / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "--quick",
             "--json", str(out)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0 or not out.exists():
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"runner --quick failed (exit {proc.returncode})")
        return json.loads(out.read_text(encoding="utf-8"))


def differences(want: dict, got: dict) -> list:
    """One line per differing header field, table, row or note."""
    lines = [f"{key}: {got.get(key)!r} != golden {want.get(key)!r}"
             for key in ("format", "seed", "n_samples")
             if got.get(key) != want.get(key)]
    want_ids = [t["experiment_id"] for t in want["tables"]]
    got_ids = [t["experiment_id"] for t in got["tables"]]
    if want_ids != got_ids:
        return lines + [f"tables {got_ids} != golden {want_ids}"]
    for w, g in zip(want["tables"], got["tables"]):
        tid = w["experiment_id"]
        for key in ("title", "columns", "notes"):
            if g[key] != w[key]:
                lines.append(f"{tid} {key}: {g[key]!r} != golden {w[key]!r}")
        if len(g["rows"]) != len(w["rows"]):
            lines.append(f"{tid}: {len(g['rows'])} rows != golden "
                         f"{len(w['rows'])}")
            continue
        for i, (wrow, grow) in enumerate(zip(w["rows"], g["rows"])):
            if grow != wrow:
                lines.append(f"{tid} row {i}: {grow!r} != golden {wrow!r}")
    return lines


def main() -> int:
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    diff = differences(want, golden_view(run_quick()))
    for line in diff:
        print(line)
    print(f"runner --quick: {len(want['tables'])} golden tables, "
          f"{'ok' if not diff else f'{len(diff)} difference(s)'}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
