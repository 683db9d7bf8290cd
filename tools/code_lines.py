"""Count the code lines of Python files.

A code line is a non-blank line that holds a token other than a comment
and is not part of a module, class or function docstring.  Docstrings
are found with `ast`, comments with `tokenize`.

Usage: python tools/code_lines.py PATH...

Each PATH is a file or a directory (searched for *.py files, recursively).
Prints one "count<TAB>path" line per file, then "count<TAB>total".
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    covered: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    docstrings = _docstring_lines(ast.parse(source))
    text = source.splitlines()
    return sum(1 for n in covered - docstrings if text[n - 1].strip())


def _files(paths: list[str]) -> list[Path]:
    out = []
    for name in paths:
        path = Path(name)
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 1
    total = 0
    for path in _files(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count}\t{path}")
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
