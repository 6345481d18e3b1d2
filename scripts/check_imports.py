#!/usr/bin/env python3
"""Fail on an imported name that its module never reads.

Walks every .py file under the given paths (by default src, scripts,
tests and perfbench, from the root of the checkout) and parses each with
the standard ast module.  A name counts as read when it appears as a
loaded name anywhere in the module (an attribute chain reads its base),
inside a string annotation, or in __all__.  Package __init__.py files
re-export what they import and are skipped, as are __future__ imports.

    python3 scripts/check_imports.py [path ...]

Prints file:line: name for every unused import and exits 1 if there is
one, 0 otherwise.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "scripts", "tests", "perfbench")


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out.append((alias.asname or alias.name, node.lineno))
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations and __all__ included."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(inner)
                          if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names |= {e.value for e in node.value.elts
                      if isinstance(e, ast.Constant)}
    return names


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    return sorted((line, name) for name, line in imported_names(tree)
                  if name not in used)


def main(argv: list[str]) -> int:
    roots = [pathlib.Path(p) for p in argv] or \
        [ROOT / p for p in DEFAULT_PATHS]
    files = []
    for root in roots:
        files.extend([root] if root.is_file() else sorted(root.rglob("*.py")))
    bad = 0
    for path in files:
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
            print(f"{shown}:{line}: {name} is imported but never read")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
