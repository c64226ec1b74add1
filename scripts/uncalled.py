#!/usr/bin/env python3
"""List public API that nothing calls, and defaulted parameters that no
call passes.

    python scripts/uncalled.py [ROOT]     (default: .)

Names.  Prints every public top-level function or class, and every
public method of a top-level class, in ``ROOT/src/repro`` whose name is
used nowhere in the ``.py`` files under ``ROOT/src``, ``ROOT/benchmarks``
or ``ROOT/examples``.  A use is a name, an attribute or a word of a
string that is not a docstring (string-named patch points count).  The
name's own ``def`` / ``class``, a string inside the class or function
that defines it (its own ``__repr__`` or error messages), ``__all__``
entries and ``import`` lines do not count: an export alone is not a
caller.  The match is by name, so a method shares its uses with every
other attribute of that name.

Parameters.  Then prints every defaulted parameter of those functions
and methods, and of those classes' ``__init__``, that no call in the
same files passes.  A call passes a parameter when it gives it by
keyword, or by position, to a callee of that name (``f(...)`` and
``x.f(...)`` are both calls to ``f``; ``cls(...)`` is a call to its
class, ``(A if c else B)(...)`` a call to both).  A call whose callee
has no name (``ROWS[key](...)``) passes every keyword it gives to every
callee, and a spread passes what it could: ``*args`` every positional
parameter, ``**kwargs`` any string key of a dict literal in those files.

One ``<path>:<line>  <name>  tests: yes|no`` row per uncalled name and
per unpassed parameter (``Class.method(param)``) — ``yes`` when
``ROOT/tests`` uses the name or passes the parameter — then the counts.
Every public name needs a caller outside the tests and every default
a caller that overrides it: a row that is not one of :data:`FOLDS` or
:data:`KEEP` makes the exit status 1 (0 otherwise).  A ROOT without
``src/repro`` is a usage error (exit 2).
"""
import argparse
import ast
import os
import pathlib
import re
import sys
from collections import Counter, defaultdict

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)
_SCOPES = (ast.Module, *_DEFS)
_WORD = re.compile(r"[A-Za-z_]\w*")
_ALL = sys.maxsize

#: The uncalled names that stay: the serial per-series folds are the
#: reference every federated fleet answer must equal bit for bit (the
#: federation tests and CI's federation smoke compare against them).
FOLDS = ("aggregate_over_series", "scan_over_series")

_ARBITER = (
    "the memory arbiter waits for a workload that installs it (ROADMAP "
    "item 13(b)); until one does, only its tests set it up"
)

#: The unpassed parameters that stay, each with its reason.
KEEP = {
    "MemoryArbiter(candidate_budgets)": _ARBITER,
    "MemoryArbiter(decision_interval)": _ARBITER,
    "MemoryArbiter(min_observations)": _ARBITER,
    "ShardedDatabase(arbiter)": _ARBITER,
    "ShardedDatabase.recover(arbiter)": _ARBITER,
    "generate_fleet(hot_fraction)": _ARBITER + " (the hot cohort is its skewed fleet)",
    "generate_fleet(hot_rate_multiplier)": _ARBITER + " (the hot cohort is its skewed fleet)",
    "main(argv)": (
        "the console script calls main() and argparse reads sys.argv; "
        "argv is how a program drives the same command tree in process"
    ),
    "scan_over_series(collect)": (
        "a serial fold (FOLDS): the federation tests are its callers, and "
        "they compare the collected rows"
    ),
    "LsmEngine.convert_cold(max_tg)": (
        "the age cutoff is the only way to build a half-columnar engine, the "
        "mixed shape the read-lattice, pruning and stability tests pin"
    ),
    "RingBufferSink(capacity)": (
        "the conformance profiles keep a whole run's trace (200 000 events) "
        "where a default bus keeps the last 4 096"
    ),
    "MetricsRegistry.histogram(buckets)": (
        "the bucket bounds are what the metrics tests pin bucketing and "
        "their order check on; every recorder in the package keeps the defaults"
    ),
    "generate_synthetic(start_time)": (
        "the generator's one time offset; its own test pins it, and deleting "
        "it deletes that test"
    ),
}


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


def _defaulted(function: ast.FunctionDef, bound: bool):
    """``(line, parameter, position)`` of each defaulted parameter; the
    position counts from the first argument a caller gives (after
    ``self`` / ``cls`` when *bound*) and is ``None`` for keyword-only
    parameters."""
    args = function.args
    positional = [*args.posonlyargs, *args.args][int(bound):]
    for index, arg in enumerate(positional[len(positional) - len(args.defaults):]):
        yield arg.lineno, arg.arg, len(positional) - len(args.defaults) + index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.lineno, arg.arg, None


def defaulted_parameters(package: pathlib.Path):
    """``(path, line, qualified name, callee, parameter, position)`` of
    every defaulted parameter of a public function, method or class."""
    for path in _python_files(package):
        for node in ast.parse(path.read_bytes()).body:
            if node.name.startswith("_") if isinstance(node, _DEFS) else True:
                continue
            if isinstance(node, _FUNCS):
                for line, param, position in _defaulted(node, bound=False):
                    yield path, line, f"{node.name}({param})", node.name, param, position
                continue
            for member in node.body:
                if not isinstance(member, _FUNCS):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in member.decorator_list
                )
                if member.name == "__init__":
                    qualname, callee = node.name, node.name
                elif member.name.startswith("_"):
                    continue
                else:
                    qualname, callee = f"{node.name}.{member.name}", member.name
                for line, param, position in _defaulted(member, bound=not static):
                    yield path, line, f"{qualname}({param})", callee, param, position


class Passes:
    """What the calls of a set of files pass, per the module doc."""

    def __init__(self) -> None:
        self.keywords: set[tuple[str | None, str]] = set()
        self.positions: dict[str, int] = defaultdict(int)
        self.spreads: set[str | None] = set()
        self.dict_keys: set[str] = set()

    def add(self, path: pathlib.Path) -> None:
        def visit(node: ast.AST, klass: str | None) -> None:
            if isinstance(node, ast.Dict):
                self.dict_keys.update(
                    k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
            elif isinstance(node, ast.Call):
                self._call(node, klass)
            if isinstance(node, ast.ClassDef):
                klass = node.name
            for child in ast.iter_child_nodes(node):
                visit(child, klass)

        visit(ast.parse(path.read_bytes()), None)

    def _call(self, call: ast.Call, klass: str | None) -> None:
        # ``(A if c else B)(...)`` calls both.
        funcs = [call.func.body, call.func.orelse] if isinstance(call.func, ast.IfExp) else [call.func]
        for func in funcs:
            callee = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if callee == "cls" and klass is not None:
                callee = klass
            for keyword in call.keywords:
                if keyword.arg is None:
                    self.spreads.add(callee)
                else:
                    self.keywords.add((callee, keyword.arg))
            if callee is not None:
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                given = _ALL if starred else len(call.args)
                self.positions[callee] = max(self.positions[callee], given)

    def passes(self, callee: str, param: str, position: int | None) -> bool:
        return (
            (callee, param) in self.keywords
            or (None, param) in self.keywords
            or (position is not None and position < self.positions.get(callee, 0))
            or (param in self.dict_keys and bool({callee, None} & self.spreads))
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="List public API that nothing calls.")
    parser.add_argument("root", nargs="?", default=".", metavar="ROOT")
    root = pathlib.Path(parser.parse_args(argv).root)
    package = root / "src" / "repro"
    if not package.is_dir():
        parser.error(f"no package at {package}")

    def used(*dirs: str) -> tuple[Counter, Passes]:
        total, passes = Counter(), Passes()
        for name in dirs:
            for path in _python_files(root / name):
                total.update(uses(path))
                passes.add(path)
        return total, passes

    (callers, passers), (tests, test_passers) = used("src", "benchmarks", "examples"), used("tests")

    def row(path: pathlib.Path, line: int, qualname: str, tested: bool) -> None:
        where = f"{path.relative_to(root)}:{line}"
        print(f"{where:48s}  {qualname:40s}  tests: {'yes' if tested else 'no'}")

    names = [
        (path, line, qualname, name)
        for path, line, qualname, name in public_names(package)
        if not callers[name]
    ]
    for path, line, qualname, name in names:
        row(path, line, qualname, bool(tests[name]))
    print(f"{len(names):6d}  uncalled")
    defaulted = list(defaulted_parameters(package))
    params = [entry for entry in defaulted if not passers.passes(*entry[3:])]
    for path, line, qualname, *call in params:
        row(path, line, qualname, test_passers.passes(*call))
    print(f"{len(params):6d}  unpassed of {len(defaulted)} defaulted parameters")
    return int(
        any(qualname not in FOLDS for _, _, qualname, _ in names)
        or any(qualname not in KEEP for _, _, qualname, *_ in params)
    )


if __name__ == "__main__":
    status = 0
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (``| head``) has what it wanted; keep the exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)
