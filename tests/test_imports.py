"""Every module-level import in the package is used by its module.

A name imported at module level counts as used when the module reads it
anywhere.  Re-exports are exempt: package `__init__` files, and import
statements marked `# noqa: F401`, the mark flake8 and ruff read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "decomplab"


def _unused_imports(tree: ast.Module, lines: list[str]) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            text = path.read_text()
            tree = ast.parse(text, str(path))
            found += [f"{path.relative_to(PACKAGE)}: {name}"
                      for name in _unused_imports(tree, text.splitlines())]
    assert not found, "unused imports:\n" + "\n".join(found)
