"""Every runnable experiment module is wired into the runner's registry.

``python -m repro.experiments.runner`` is the single entry point the
paper sweep, CI and the results JSON all go through.  An experiment
module that exists on disk but is missing from ``_all_experiments``
silently drops out of every sweep: the tables keep printing, nothing
fails, and a figure quietly stops being reproduced.

The check runs the registry for real: every experiment module's ``run``
is replaced by a stub that records its module, every registry entry is
called, and the recorded set must equal the set of experiment files on
disk.  Infrastructure modules (``common``, ``env``, ``runner``,
``__init__``) are not experiments.
"""

import importlib
import re
from pathlib import Path

from repro.experiments import runner

EXPERIMENTS_DIR = Path(runner.__file__).resolve().parent

#: Filenames under repro/experiments/ that are runnable experiments.
EXPERIMENT_FILE_RE = re.compile(
    r"(fig\d+\w*|table\d+\w*|ext_\w+|param_\w+|accuracy|reduction)\.py"
)


def experiment_modules():
    return {
        f"repro.experiments.{path.stem}"
        for path in EXPERIMENTS_DIR.glob("*.py")
        if EXPERIMENT_FILE_RE.fullmatch(path.name)
    }


def unregistered(registry, monkeypatch):
    """Experiment modules no entry of ``registry(None, 1)`` runs, sorted."""
    called = set()
    for name in experiment_modules():
        module = importlib.import_module(name)

        def stub(*args, _name=name, **kwargs):
            called.add(_name)
            return []

        monkeypatch.setattr(module, "run", stub)
    for entry in registry(None, 1).values():
        entry()
    return sorted(experiment_modules() - called)


def test_every_experiment_module_is_registered(monkeypatch):
    assert len(experiment_modules()) >= 14
    assert unregistered(runner._all_experiments, monkeypatch) == []


def test_dropping_an_entry_names_its_module(monkeypatch):
    """Self-test: removing any one registry entry is caught, by name."""
    named = set()
    for key in runner._all_experiments(None, 1):

        def registry(env, n_samples, _key=key):
            entries = runner._all_experiments(env, n_samples)
            del entries[_key]
            return entries

        missing = unregistered(registry, monkeypatch)
        assert len(missing) == 1, (key, missing)
        named.update(missing)
    assert named == experiment_modules()
