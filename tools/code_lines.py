"""Count the code lines of each src/phasekit module.

    python3 tools/code_lines.py

A code line holds at least one token that is not part of a comment or a
docstring (the string that opens a module, class or function body); blank
lines do not count.  A statement that spans several lines counts each
line it spans.  Unlike ``wc -l``, the count does not move when a comment
or a docstring does, so lines saved by rewording are not counted as code
removed.  Prints one line per module and the total, as ``wc -l`` does.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines() -> dict:
    """Code lines per src/phasekit module, and the total."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "phasekit", "*.py"))):
        with open(path) as f:
            counts[os.path.basename(path)] = code_lines(f.read())
    return {**counts, "total": sum(counts.values())}


def main() -> int:
    for name, count in src_code_lines().items():
        print(f"{count:6d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
