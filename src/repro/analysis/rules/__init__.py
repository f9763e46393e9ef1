"""Rule modules register themselves on import (see ..registry).

Adding a rule: create ``rNNN_name.py`` beside these, decorate the class
with ``@register``, and import the module here.
"""

from . import (  # noqa: F401
    r001_randomness,
    r002_caches,
    r005_float_eq,
    r006_exceptions,
    r007_ledger_audit,
    r015_ordered_reduction,
    r016_fail_open,
)
