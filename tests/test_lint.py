"""Source checks that need no linter: every name a module imports is
used, every import sits at module level, every module-level private name
is referenced outside its own definition, every method of a package class
is referenced by package or test code, and the README names exactly the
config options the parser knows.

Deleting code tends to leave its imports, private helpers and the methods
only its callers used behind. The package __init__ imports names only to
re-export them, so it is left out of the first check. An import inside a
function hides a module's dependencies.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

from moran.config import _OPTION_PARSERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moran"
TESTS = ROOT / "tests"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_imports(source: str) -> list:
    tree = ast.parse(source)
    return sorted(
        (node.lineno, func.name)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_unused_imports_are_found():
    source = "import os\nfrom math import pi, tau as turn\nimport numpy as np\nprint(pi, np.e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "turn")]


def test_every_import_in_src_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_function_imports_are_found():
    source = "import os\n\ndef f():\n    from math import pi\n    def g():\n        import re\n"
    # the nested import counts for both functions that hold it
    assert function_imports(source) == [(4, "f"), (6, "f"), (6, "g")]


def test_every_import_in_src_is_at_module_level():
    modules = sorted(SRC.glob("*.py"))
    found = {p.name: function_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _private_definitions(statement) -> list:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(statement) -> set:
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) for each module-level private name that no
    top-level statement of any module refers to, other than the one that
    defines it: a recursive helper does not keep itself alive."""
    statements = [(module, s) for module, source in sources.items() for s in ast.parse(source).body]
    refs = [_references(s) for _, s in statements]
    return sorted(
        (module, name)
        for i, (module, s) in enumerate(statements)
        for name in _private_definitions(s)
        if not any(name in r for j, r in enumerate(refs) if j != i)
    )


def test_unreferenced_private_names_are_found():
    sources = {
        "a.py": "_CAP = 4\n_used = 1\n\ndef _gone(n):\n    return _gone(n - 1)\n",
        "b.py": "from .a import _used\n\ndef f():\n    return _used\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", "_CAP"), ("a.py", "_gone")]


def test_every_private_name_in_src_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def _name_counts(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_methods(sources: dict, references: dict, inherited=frozenset()) -> list:
    """(module, class, method) for each method of a class in sources whose
    name no module of sources or references refers to outside the method's
    own body. Dunder methods are called by the language, and the
    (class, method) pairs in inherited by a base class, so both are left
    out."""
    trees = {name: ast.parse(text) for name, text in {**references, **sources}.items()}
    counts = sum((_name_counts(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, cls.name, method.name)
        for module in sources
        for cls in ast.walk(trees[module])
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("__")
        and (cls.name, method.name) not in inherited
        and counts[method.name] == _name_counts(method)[method.name]
    )


def _overrides_of_outside_bases() -> set:
    # a method that overrides one of a base class from outside the package
    # (argparse's error, say) is called from there
    found = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"moran.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                outside = [b for b in cls.__mro__[1:] if not b.__module__.startswith("moran")]
                found.update(
                    (cls.__name__, n)
                    for n in vars(cls)
                    if not n.startswith("__") and any(n in vars(b) for b in outside)
                )
    return found


def test_unreferenced_methods_are_found():
    sources = {
        "a.py": (
            "class A:\n    def used(self):\n        return 1\n"
            "    def gone(self):\n        return self.gone()\n"
            "    def kept(self):\n        pass\n"
            "    def hook(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b.py": "from .a import A\n\nA().used()\n",
    }
    references = {"test_a.py": "def test_kept():\n    A().kept()\n"}
    found = unreferenced_methods(sources, references, inherited={("A", "hook")})
    assert found == [("a.py", "A", "gone")]


def test_every_method_in_src_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    tests = {p.name: p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
    assert unreferenced_methods(sources, tests, _overrides_of_outside_bases()) == []


def test_readme_lists_exactly_the_known_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Recognized `option\.` keys are (.*?);", readme, re.DOTALL)
    assert sentence, "README lost its list of option keys"
    listed = re.findall(r"`([^`]+)`", sentence.group(1))
    assert sorted(listed) == sorted(_OPTION_PARSERS)
