"""Static checks on the package's surface: the root's exports and its imports.

There is no linter in the toolchain, so six of its checks live here: every
name the package root exports resolves and is listed once, no module under
src/softsrv imports a name it never uses, no private module-level function,
class or constant goes unread, no public module-level function or class
is read by the tests alone, no defaulted parameter is passed by the tests
alone, and each token-sequence rule's error is raised from one function.
The import check's exceptions are declared in WRAPPER_ONLY_IMPORTS, each
with its reason: a name that perfbench/tracing.py wraps in a module that
never reads it. The benchmark times calls by replacing the attribute
there, so the import must stay until the module calls it.
"""

import ast
import re
from collections import Counter, defaultdict
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


# an import its module never reads, kept because perfbench/tracing.py wraps it there, with the reason
WRAPPER_ONLY_IMPORTS = {
    "training.py: zeros_like_params": "the prompts.zeros_like_params span wraps it in softsrv.training as well as "
                                      "in softsrv.prompts, though only param_grad in prompts.py calls it",
}


def test_no_module_imports_a_name_it_never_uses(monkeypatch):
    # a new import kept only for a benchmark wrapper fails here until it is declared above
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import WRAPPERS

    wrapped = {(f"{module.removeprefix('softsrv.')}.py", attr) for module, attr, _, _ in WRAPPERS}
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == sorted(WRAPPER_ONLY_IMPORTS)
    assert [entry for entry in found if tuple(entry.split(": ")) not in wrapped] == []


def _reads(node: ast.AST) -> Counter:
    """Each name the node reads, as a bare name, an attribute or an import."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def _unread(sources: dict[str, str], readers: list[str], wanted) -> list[str]:
    """Module-level names of sources, picked by wanted(node, name), that neither
    sources nor readers read anywhere but in their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_reads(tree) for tree in [*trees.values(), *map(ast.parse, readers)]), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _reads(node)
            found += [f"{module}: {name}" for name in names if wanted(node, name) and total[name] == own[name]]
    return sorted(found)


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants read nowhere but in their own definition."""
    return _unread(sources, [], lambda node, name: name.startswith("_") and not name.startswith("__"))


def unread_publics(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public module-level functions and classes read nowhere in sources or readers but in their own definition.

    Constants are left out: vocab.PAD names a token id that only tests read.
    """
    return _unread(sources, readers, lambda node, name: (
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")))


def test_unread_privates_finds_what_it_should():
    source = (
        "_A = 1\n_B = 2\n_C: int = 3\n__all__ = []\n"
        "def _f():\n    return _f()\n"
        "def _g():\n    return _B\n"
        "class _K:\n    pass\n"
        "x = _g() + _K.__name__\n"
    )
    assert unread_privates({"m": source}) == ["m: _A", "m: _C", "m: _f"]
    assert unread_privates({"m": source, "n": "from m import _A\nimport m\nm._f()\nprint(_C)\n"}) == []


def test_no_private_module_level_name_goes_unread():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_privates(sources) == []


def test_unread_publics_finds_what_it_should():
    source = (
        "A = 1\n"
        "def f():\n    return f()\n"
        "def g():\n    return A\n"
        "class K:\n    pass\n"
        "def _h():\n    return 0\n"
        "x = g()\n"
    )
    assert unread_publics({"m": source}, []) == ["m: K", "m: f"]
    assert unread_publics({"m": source}, ["from m import f\nimport m\nm.K()\n"]) == []


def test_every_public_function_and_class_is_read_outside_the_tests():
    # readers: the package (its root only re-exports), the demos and the benchmark
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    readers = [path.read_text(encoding="utf-8")
               for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unread_publics(sources, readers) == []


def _callees(trees: list[ast.AST]) -> dict[str, list[ast.Call]]:
    """Every call in trees, keyed by the name it calls: a bare name or an attribute."""
    calls = defaultdict(list)
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                calls[getattr(call.func, "id", None) or call.func.attr].append(call)
    return calls


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether call passes param: by keyword, through **, or at position index or through *."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (index < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions and methods of sources that no call in sources or callers passes.

    A call counts for every function of the name it calls (a class's name
    for its __init__), and a method's positions start after self or cls.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = _callees([*trees.values(), *map(ast.parse, callers)])
    found = []
    for module, tree in trees.items():
        owners = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner, a = owners.get(id(func)), func.args
            positional = a.posonlyargs + a.args
            if owner and "staticmethod" not in {getattr(d, "id", None) for d in func.decorator_list}:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            name = owner if func.name == "__init__" else func.name
            for p in defaulted:
                index = positional.index(p) if p in positional else None
                if not any(_passes(call, p.arg, index) for call in calls[name]):
                    found.append(f"{module}: {owner + '.' if owner else ''}{func.name}({p.arg})")
    return sorted(found)


def test_unpassed_defaults_finds_what_it_should():
    source = (
        "def f(a, b=1, *, c=2):\n    return a\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        return y\n"
        "    @staticmethod\n    def s(w=0):\n        return w\n"
        "f(0)\nK().m(1)\nK.s()\n"
    )
    assert unpassed_defaults({"m": source}, []) == [
        "m: K.__init__(x)", "m: K.m(z)", "m: K.s(w)", "m: f(b)", "m: f(c)"]
    callers = ["from m import K, f\nf(0, 1, c=3)\nK(x=1).m(**{})\nK.s(*[])\n"]
    assert unpassed_defaults({"m": source}, callers) == []


# a parameter only its callers outside the repository pass, with the reason
UNPASSED_DEFAULTS = {
    "cli.py: main(argv)": "the console entry point calls main() and it reads sys.argv; tests pass argv",
}


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a default that no caller in the package, the demos or the benchmark
    # overrides is a constant; declare it as one
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    callers = [path.read_text(encoding="utf-8")
               for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unpassed_defaults(sources, callers) == sorted(UNPASSED_DEFAULTS)


def raisers(sources: dict[str, str], pattern: str) -> list[str]:
    """The functions, as "module: function", that raise an error whose message's literal text matches pattern."""
    found = set()
    for module, source in sources.items():
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                call = node.exc if isinstance(node, ast.Raise) else None
                if not isinstance(call, ast.Call) or not call.args:
                    continue
                text = "".join(n.value for n in ast.walk(call.args[0])
                               if isinstance(n, ast.Constant) and isinstance(n.value, str))
                if re.search(pattern, text):
                    found.add(f"{module}: {func.name}")
    return sorted(found)


def test_raisers_finds_what_it_should():
    source = (
        "def f(i):\n    raise ValueError(f'token id {i} out of vocabulary range')\n"
        "def g(t):\n    if t:\n        raise ValueError('prompt width ' + str(t))\n"
        "def h():\n    raise ValueError\n"
    )
    assert raisers({"m": source}, "vocabulary range") == ["m: f"]
    assert raisers({"m": source}, "width") == ["m: g"]
    assert raisers({"m": source}, "anything") == []


# each token-sequence rule's message, with the wordings of the copies it replaced
TOKEN_SEQUENCE_RULES = {
    "vocab.py: check_ids": r"out of vocabulary range|out of range|\bnot an int\b",
    "backbone.py: check_prompt": r"\bwidth\b|does not fit the backbone|does not match backbone|backbone capacity",
    "backbone.py: check_capacity": r"exceeds capacity",
}


def test_each_token_sequence_rule_is_raised_from_one_function():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    for owner, pattern in TOKEN_SEQUENCE_RULES.items():
        assert raisers(sources, pattern) == [owner]
