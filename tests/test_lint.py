"""Source checks that need no linter: every name a module imports is
used, every import sits at module level, and the README names exactly
the config options the parser knows.

Deleting code tends to leave its imports behind. The package __init__
imports names only to re-export them, so it is left out of the first
check. An import inside a function hides a module's dependencies.
"""

import ast
import re
from pathlib import Path

from moran.config import _OPTION_PARSERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moran"


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


def test_readme_lists_exactly_the_known_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Recognized `option\.` keys are (.*?);", readme, re.DOTALL)
    assert sentence, "README lost its list of option keys"
    listed = re.findall(r"`([^`]+)`", sentence.group(1))
    assert sorted(listed) == sorted(_OPTION_PARSERS)
