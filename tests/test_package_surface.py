"""Static checks on the package's surface: the root's exports and its imports.

There is no linter in the toolchain, so two of its checks live here: every
name the package root exports resolves and is listed once, and no module
under src/softsrv imports a name it never uses. The one exception is a
name that perfbench/tracing.py wraps in that module: the benchmark times
calls by replacing the attribute there, so the import must stay.
"""

import ast
from pathlib import Path

import softsrv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "softsrv"


def test_every_exported_name_resolves_and_appears_once():
    names = softsrv.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(softsrv, n)] == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, save those listed in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_what_it_should():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom x import a, b\n"
    assert unused_imports(source + "__all__ = ['a']\n") == ["b", "np", "os"]
    assert unused_imports(source + "np.zeros(b)\nos.sep\n__all__ = ['a']\n") == []


def test_no_module_imports_a_name_it_never_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import WRAPPERS

    wrapped = {(module, attr) for module, attr, _, _ in WRAPPERS}
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (f"softsrv.{path.stem}", name) not in wrapped
    ]
    assert found == []
