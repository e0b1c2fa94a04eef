"""Count code lines: lines that hold code, not counting docstrings,
comments or blank lines.

    python tools/count_lines.py [DIR ...]

With no arguments it counts ``src/`` and ``tests/`` under the repository
root. Prints one line per directory and uses the standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parent.parent
    dirs = [Path(a) for a in argv] or [root / "src", root / "tests"]
    for d in dirs:
        files = sorted(d.rglob("*.py"))
        print(f"{d.name}/: {sum(code_lines(p) for p in files)} code lines in {len(files)} files")


if __name__ == "__main__":
    main(sys.argv[1:])
