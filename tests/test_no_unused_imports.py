"""Every name a package module imports is used in that module, except the listed ones.

An import that nothing reads is left over from removed code: it costs load
time and tells the reader of a dependency that is not there.  A name counts
as used if the module reads it anywhere, annotations included.  The
allowlist names each kept import as module.name, with the reason.  The same
holds for a module's private top-level names (`_x`, not dunders): no other
module should need them, so one that its own module never reads is dead.
"""
import ast
from pathlib import Path

import fairkdiv

PRUNE_HOOK = "kept only as the module attribute that bench/tracing.py wraps"
ALLOWED: dict[str, str] = {
    "cliquewidth.dominance_prune": PRUNE_HOOK,
    "treeindep.dominance_prune": PRUNE_HOOK,
}


def read_names(tree: ast.Module) -> set[str]:
    """The names some expression of the module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(tree: ast.Module) -> set[str]:
    """The names the module's imports bind that no expression of it reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    return imported - read_names(tree)


def unread_private_names(tree: ast.Module) -> set[str]:
    """The private names the module's top-level statements define that nothing of it reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    return {name for name in defined - dunders if name.startswith("_")} - read_names(tree)


def package_findings(check) -> set[str]:
    """module.name for each name check(tree) returns, over the package's modules."""
    found = set()
    for path in sorted(Path(fairkdiv.__file__).parent.glob("*.py")):
        found.update(f"{path.stem}.{name}" for name in check(ast.parse(path.read_text())))
    return found


def test_only_allowlisted_imports_are_unused():
    assert package_findings(unused_imports) == set(ALLOWED)


def test_every_private_name_is_read():
    assert package_findings(unread_private_names) == set()


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


def test_detects_unread_private_names():
    tree = ast.parse(
        "import os\n"
        "_TABLE = {}\n"
        "_seen: set = set()\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "__version__ = '1'\n"
        "def _used(x):\n"
        "    _local = x\n"
        "    return _TABLE.get(x)\n"
        "def _dead():\n"
        "    _seen = 1\n"
        "class _Old:\n"
        "    pass\n"
        "def public():\n"
        "    return _used(_a)\n"
    )
    assert unread_private_names(tree) == {"_seen", "_b", "_dead", "_Old"}
