"""Rule modules register themselves on import (see ..registry).

Adding a rule: create ``rNNN_name.py`` beside these, decorate the class
with ``@register``, and import the module here.
"""

from . import (  # noqa: F401
    r001_randomness,
    r002_caches,
    r003_units,
    r005_float_eq,
    r006_exceptions,
    r007_ledger_audit,
    r008_registry,
    r009_doc_units,
    r010_worker_globals,
    r011_shm_lifecycle,
    r012_stateless_jobs,
    r013_pid_guards,
    r014_rng_lineage,
    r015_ordered_reduction,
    r016_fail_open,
)
