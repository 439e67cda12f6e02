"""Every module of the package uses each name it imports, and every top-level
function and class of the package is referenced somewhere.

For imports `__init__.py` is left out: its imports are the package's
re-exports.  The modules are read with ast, not imported, so a name counts
as used when it appears as a bare name anywhere in the module, an
attribute's base included.

A top-level function or class counts as referenced when its name appears
outside its own definition in a module of `src/`, `tests/` or `perfbench/`:
as a bare name, an attribute, an imported name or a whole string, because
the tracer patches functions by module and name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sylowbranch"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import prod, sqrt\nfrom . import tower as tw\n\nos.sep\ntw.LEAF\n"
    assert _unused_imports(source) == [(2, "prod"), (2, "sqrt")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 9
    unused = {
        path.name: found
        for path in modules
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused, unused


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _unreferenced(package, others):
    """(module, name) of each top-level def or class in package named nowhere else.

    package maps module names to sources; others is a list of sources that
    only reference.
    """
    defined = set()
    used = set()
    for module, source in [*package.items(), *((None, text) for text in others)]:
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and module:
                defined.add((module, own))
            used.update(name for name in _names(stmt) if name != own)
    return sorted((module, name) for module, name in defined if name not in used)


def test_the_check_sees_an_unreferenced_definition():
    package = {
        "a.py": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n"
        "\n\nclass Dead:\n    pass\n\n\ndef traced():\n    pass\n",
        "b.py": "from .a import used\n",
    }
    others = ["SPANNED = (('a', 'traced'),)\n"]
    assert _unreferenced(package, others) == [("a.py", "Dead"), ("a.py", "recursive")]


def test_every_top_level_definition_is_referenced():
    package = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(package) >= 10
    others = [
        path.read_text(encoding="utf-8")
        for base in ("tests", "perfbench")
        for path in sorted((ROOT / base).rglob("*.py"))
    ]
    unreferenced = _unreferenced(package, others)
    assert not unreferenced, unreferenced
