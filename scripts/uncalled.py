#!/usr/bin/env python3
"""List public API that nothing calls.

    python scripts/uncalled.py [ROOT]     (default: .)

Prints every public top-level function or class, and every public method
of a top-level class, in ``ROOT/src/repro`` whose name is used nowhere
in the ``.py`` files under ``ROOT/src``, ``ROOT/benchmarks`` or
``ROOT/examples``.  A use is a name, an attribute or a word of a string
that is not a docstring (string-named patch points count).  The name's
own ``def`` / ``class``, a string inside the class or function that
defines it (its own ``__repr__`` or error messages), ``__all__``
entries and ``import`` lines do not count: an export alone is not a
caller.  The match is by name, so a
method shares its uses with every other attribute of that name.

One ``<path>:<line>  <name>  tests: yes|no`` row per uncalled name —
``yes`` when ``ROOT/tests`` uses it — then the count.  Every public name
needs a caller outside the tests: a row whose name is not one of
:data:`FOLDS` makes the exit status 1 (0 otherwise).  A ROOT without
``src/repro`` is a usage error (exit 2).
"""
import argparse
import ast
import os
import pathlib
import re
import sys
from collections import Counter

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)
_SCOPES = (ast.Module, *_DEFS)
_WORD = re.compile(r"[A-Za-z_]\w*")

#: The uncalled names that stay: the serial per-series folds are the
#: reference every federated fleet answer must equal bit for bit (the
#: federation tests and CI's federation smoke compare against them).
FOLDS = ("aggregate_over_series", "scan_over_series")


def _python_files(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted(root.rglob("*.py")) if root.is_dir() else []


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def uses(path: pathlib.Path) -> Counter:
    """Every use of a name in one file, per the module doc."""
    tree = ast.parse(path.read_bytes())
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            skipped.add(id(node.body[0].value))
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(node)
        ):
            skipped.update(id(child) for child in ast.walk(node))
    found: Counter = Counter()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if id(node) in skipped:
            return
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(w for w in _WORD.findall(node.value) if w not in enclosing)
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def public_names(package: pathlib.Path):
    """``(path, line, qualified name, name)`` of every public top-level
    function or class and every public method of a top-level class."""
    for path in _python_files(package):
        for node in ast.parse(path.read_bytes()).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield path, node.lineno, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCS) and not member.name.startswith("_"):
                        yield path, member.lineno, f"{node.name}.{member.name}", member.name


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="List public API that nothing calls.")
    parser.add_argument("root", nargs="?", default=".", metavar="ROOT")
    root = pathlib.Path(parser.parse_args(argv).root)
    package = root / "src" / "repro"
    if not package.is_dir():
        parser.error(f"no package at {package}")

    def used(*dirs: str) -> Counter:
        total: Counter = Counter()
        for name in dirs:
            for path in _python_files(root / name):
                total.update(uses(path))
        return total

    callers = used("src", "benchmarks", "examples")
    tests = used("tests")
    rows = [
        (path, line, qualname, name)
        for path, line, qualname, name in public_names(package)
        if not callers[name]
    ]
    for path, line, qualname, name in rows:
        where = f"{path.relative_to(root)}:{line}"
        print(f"{where:48s}  {qualname:40s}  tests: {'yes' if tests[name] else 'no'}")
    print(f"{len(rows):6d}  uncalled")
    return int(any(qualname not in FOLDS for _, _, qualname, _ in rows))


if __name__ == "__main__":
    status = 0
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (``| head``) has what it wanted; keep the exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)
