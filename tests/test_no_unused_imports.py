"""Every name a package module imports is used in that module, except the listed ones.

An import that nothing reads is left over from removed code: it costs load
time and tells the reader of a dependency that is not there.  A name counts
as used if the module reads it anywhere, annotations included.  The
allowlist names each kept import as module.name, with the reason.
"""
import ast
from pathlib import Path

import fairkdiv

PRUNE_HOOK = "kept only as the module attribute that bench/tracing.py wraps"
ALLOWED: dict[str, str] = {
    "cliquewidth.dominance_prune": PRUNE_HOOK,
    "convex.dominance_prune": PRUNE_HOOK,
    "treeindep.dominance_prune": PRUNE_HOOK,
}


def unused_imports(tree: ast.Module) -> set[str]:
    """The names the module's imports bind that no expression of it reads."""
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


def package_unused_imports() -> set[str]:
    found = set()
    for path in sorted(Path(fairkdiv.__file__).parent.glob("*.py")):
        found.update(f"{path.stem}.{name}" for name in unused_imports(ast.parse(path.read_text())))
    return found


def test_only_allowlisted_imports_are_unused():
    assert package_unused_imports() == set(ALLOWED)


def test_detects_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from operator import getitem, itemgetter as ig\n"
        "def f(x: os.PathLike) -> int:\n"
        "    import json\n"
        "    return ig(0)(x)\n"
    )
    assert unused_imports(tree) == {"getitem", "json"}
