"""Every function and table perfbench/tracer.py wraps by name exists in the package.

A renamed kernel would otherwise only show up as a "not found" line in a
traced benchmark run, with its metrics reading 0.  The tracer is read with
ast, not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TABLES = ("SPANNED", "COUNTED", "CACHED", "MEMOS")
# targets the tracer still names that the package no longer has; a later
# tracer that drops them passes too
KNOWN_MISSING = {"engine._stage_a_memo", "tower.sylow_elements"}


def _tracer_targets():
    tables, replaced = {}, []
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = ast.literal_eval(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_replace":
            args = node.args[:2]
            if len(args) == 2 and all(isinstance(a, ast.Constant) for a in args):
                replaced.append(tuple(a.value for a in args))
    assert set(tables) == set(TABLES), sorted(tables)
    return tables, replaced


def _exists(module, attr, cached=False):
    value = getattr(importlib.import_module(f"sylowbranch.{module}"), attr, None)
    return value is not None and (not cached or hasattr(value, "cache_info"))


def test_tracer_targets_exist():
    tables, replaced = _tracer_targets()
    targets = [(m, a, False) for m, a, _ in tables["SPANNED"] + tables["COUNTED"]]
    targets += [(m, a, True) for m, a, _ in tables["CACHED"]]
    targets += [("engine", a, False) for a, _ in tables["MEMOS"]]
    targets += [(m, a, False) for m, a in replaced]
    assert len(targets) > 20
    missing = {f"{m}.{a}" for m, a, cached in targets if not _exists(m, a, cached)}
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
