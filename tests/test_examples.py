"""Every script under ``examples/`` runs to completion.

Each one runs in a fresh interpreter, with ``src`` on ``PYTHONPATH`` and
the artifact store pointed at a per-test temp dir, so an example can
neither read a developer's warm store nor leave files behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.execution.artifacts import ARTIFACT_DIR_ENV

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env[ARTIFACT_DIR_ENV] = str(tmp_path / "artifacts")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
