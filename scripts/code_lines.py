#!/usr/bin/env python3
"""Count the code lines of each module of `mg`.

A code line is a line that holds a token of code: blank lines, comments and
docstrings (the leading string of a module, class or function) do not
count.  Prints one line per module of `src/mg` and their total, so that a
claim that a change made the package smaller can cite this script:

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mg"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.relative_to(SRC.parent)!s:<24} {n:>6}")
    print(f"{'total':<24} {total:>6}")


if __name__ == "__main__":
    main()
