"""No function in the package calls itself, except the listed bounded ones.

A tree walk that recurses fails with RecursionError on a deep enough
decomposition or expression, so every traversal uses an explicit stack.
The allowlist names the functions whose recursion depth is bounded by
something small, with the bound; it is empty.
"""
import ast
from pathlib import Path

import fairkdiv

ALLOWED: dict[str, str] = {}


def calls_itself(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name) and target.id == func.name:
            return True
        if (
            isinstance(target, ast.Attribute)
            and target.attr == func.name
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            return True
    return False


def recursive_functions() -> set[str]:
    found = set()
    for path in sorted(Path(fairkdiv.__file__).parent.glob("*.py")):
        stack = [(ast.parse(path.read_text()), path.stem)]
        while stack:
            scope, name = stack.pop()
            for child in ast.iter_child_nodes(scope):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{name}.{child.name}"
                    if not isinstance(child, ast.ClassDef) and calls_itself(child):
                        found.add(qualname)
                    stack.append((child, qualname))
                else:
                    stack.append((child, name))
    return found


def test_only_allowlisted_functions_recurse():
    assert recursive_functions() == set(ALLOWED)


def test_detects_self_calls():
    tree = ast.parse("def f(x):\n    return f(x - 1) if x else 0\n\ndef g(x):\n    return f(x)\n")
    f, g = tree.body
    assert calls_itself(f) and not calls_itself(g)
