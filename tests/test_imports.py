"""Every module of the package uses each name it imports.

`__init__.py` is left out: its imports are the package's re-exports.  The
modules are read with ast, not imported, so a name counts as used when it
appears as a bare name anywhere in the module, an attribute's base included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sylowbranch"


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
