#!/usr/bin/env python3
"""Count code lines: lines holding a token that is neither a comment nor
part of a module/class/function docstring.  Blank lines do not count.

    python scripts/code_lines.py [PATH ...]     (default: src/repro)

One ``<count>  <path>`` row per argument (directories are walked for
``*.py``), then their sum.  A path that does not exist is a usage error
(exit 2).
"""
import argparse
import ast
import os
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    lines: set[int] = set()
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in _SKIP:
                lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Count code lines per PATH.")
    parser.add_argument("paths", nargs="*", default=["src/repro"], metavar="PATH")
    paths = parser.parse_args(argv).paths
    for arg in paths:
        if not pathlib.Path(arg).exists():
            parser.error(f"no such path: {arg}")
    total = 0
    for arg in paths:
        root = pathlib.Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        count = sum(map(code_lines, files))
        total += count
        print(f"{count:6d}  {arg}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (``| head -1``) has what it wanted.  Point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
