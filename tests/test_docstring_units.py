"""Docstring unit declarations agree with name-suffix conventions.

Units travel through two channels: identifier suffixes (``_usd``,
``_hours``, ``_s``) and prose (``"Wall-clock duration in hours."``),
which readers and callers trust just as much.  When the two drift
(``def transfer_hours`` documented as *seconds*), one of them is lying,
and whichever a maintainer believes, the next conversion they write is
wrong by 3600x.

For every function under ``src/`` this test cross-checks

* the **return**: a unit suffix on the function name against the unit
  declared by a Sphinx ``:returns:`` field or, failing that, an
  ``in <unit>`` phrase in the summary paragraph;
* each **parameter**: a unit suffix on the parameter name against its
  ``:param name:`` field.

Both sides must be confident: text mentioning more than one unit
(``"dollars per hour"``, conversion helpers) is ambiguous and never
fails.
"""

import ast
import re
import textwrap
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MONEY = "dollars"
HOURS = "hours"
SECONDS = "seconds"

#: Name suffixes that pin a unit.
SUFFIX_UNITS = {
    "_usd": MONEY,
    "_dollars": MONEY,
    "_cost": MONEY,
    "_hours": HOURS,
    "_hrs": HOURS,
    "_s": SECONDS,
    "_seconds": SECONDS,
}

_WORD_UNITS = (
    (re.compile(r"\b(dollars?|usd)\b", re.I), MONEY),
    (re.compile(r"\bhours?\b|\bhrs\b", re.I), HOURS),
    (re.compile(r"\bseconds?\b|\bsecs\b", re.I), SECONDS),
)
_IN_UNIT_RE = re.compile(
    r"\bin\s+(us\s+)?(dollars?|usd|hours?|hrs|seconds?|secs)\b", re.I
)
_FIELD_RE = re.compile(r"^\s*:(\w+)([^:]*):\s*(.*)$")


def suffix_unit(name: str) -> Optional[str]:
    """Unit pinned by a trailing suffix of ``name``, or None."""
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return None


def text_unit(text: str) -> Optional[str]:
    """The single unit a prose fragment mentions, or None if 0 or 2+."""
    units = {unit for rx, unit in _WORD_UNITS if rx.search(text)}
    return units.pop() if len(units) == 1 else None


def field_bodies(doc: str) -> dict:
    """Sphinx-style fields: ``{"returns": text, "param x": text, ...}``."""
    out: dict = {}
    key = None
    for line in doc.splitlines():
        m = _FIELD_RE.match(line)
        if m:
            name, arg = m.group(1).lower(), m.group(2).strip()
            key = f"{name} {arg}".strip()
            out[key] = m.group(3)
        elif key is not None and line.strip():
            out[key] += " " + line.strip()
        else:
            key = None
    return out


def summary_return_unit(doc: str) -> Optional[str]:
    """Unit declared by ``in <unit>`` phrases of the summary paragraph."""
    summary = doc.split("\n\n", 1)[0]
    phrases = _IN_UNIT_RE.findall(summary)
    if not phrases:
        return None
    return text_unit(" ".join(p[1] for p in phrases))


def declared_units(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, str, str, Optional[str]]]:
    """``(def node, subject, suffix unit, docstring unit)`` per pairing.

    One row per function whose name carries a unit suffix and per
    parameter whose name does, when the docstring documents it; the
    docstring unit is None when the text names no unit or several.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node)
        if not doc:
            continue
        fields = field_bodies(doc)
        declared = suffix_unit(node.name)
        if declared is not None:
            for key in ("returns", "return"):
                if key in fields:
                    doc_unit = text_unit(fields[key])
                    break
            else:
                doc_unit = summary_return_unit(doc)
            yield node, f"{node.name}()", declared, doc_unit
        for arg in node.args.args + node.args.kwonlyargs:
            param_unit = suffix_unit(arg.arg)
            body = fields.get(f"param {arg.arg}")
            if param_unit is not None and body is not None:
                yield (
                    node, f"parameter {arg.arg!r} of {node.name}()",
                    param_unit, text_unit(body),
                )


def unit_conflicts(tree: ast.AST) -> List[Tuple[int, str]]:
    """``(line, message)`` for every suffix/docstring unit disagreement."""
    return [
        (
            node.lineno,
            f"{subject} declares {declared} by suffix but its docstring "
            f"says {doc_unit}",
        )
        for node, subject, declared, doc_unit in declared_units(tree)
        if doc_unit is not None and doc_unit != declared
    ]


def _src_trees() -> Iterator[Tuple[str, ast.AST]]:
    for path in sorted(SRC.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield (
            path.relative_to(SRC).as_posix(),
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
        )


FIXTURES = {
    "return_field_conflict": (
        '''
        def transfer_hours(size):
            """Transfer time.

            :returns: wall-clock time in seconds.
            """
            return size / 100.0
        ''',
        ["transfer_hours() declares hours by suffix but its docstring "
         "says seconds"],
    ),
    "summary_phrase_conflict": (
        '''
        def runtime_s(n):
            """Estimated runtime in hours."""
            return n * 2.0
        ''',
        ["runtime_s() declares seconds by suffix but its docstring "
         "says hours"],
    ),
    "param_field_conflict": (
        '''
        def bill(runtime_hours):
            """Bill a run.

            :param runtime_hours: elapsed seconds of compute.
            """
            return runtime_hours
        ''',
        ["parameter 'runtime_hours' of bill() declares hours by suffix "
         "but its docstring says seconds"],
    ),
    "agreeing_and_ambiguous_docs": (
        '''
        def cost_usd(runtime_hours):
            """Cost in dollars.

            :param runtime_hours: elapsed hours of compute.
            :returns: the bill in dollars.
            """
            return runtime_hours * 0.1

        def rate(x):
            """Dollars per hour conversion (mentions both units)."""
            return x
        ''',
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_verdict(name):
    source, expected = FIXTURES[name]
    tree = ast.parse(textwrap.dedent(source))
    assert [msg for _, msg in unit_conflicts(tree)] == expected


def test_src_docstring_units_agree_with_suffixes():
    conflicts = [
        f"src/{rel}:{line}: {msg}"
        for rel, tree in _src_trees()
        for line, msg in unit_conflicts(tree)
    ]
    assert conflicts == [], "\n".join(conflicts)


def test_src_walk_sees_documented_units():
    """Guards the check above against passing vacuously: ``src/`` does
    document units for suffixed names, and the walk must see them —
    ``FailureModel.mttf_hours`` ("Mean time to an out-of-bid failure, in
    hours.") among them."""
    confident = {
        (subject, doc_unit)
        for _, tree in _src_trees()
        for _, subject, _, doc_unit in declared_units(tree)
        if doc_unit is not None
    }
    assert confident, "no suffixed name under src/ documents its unit"
    assert ("mttf_hours()", HOURS) in confident, sorted(confident)
