"""Count the code lines of the package source.

    python3 tools/code_lines.py [ROOT]

Prints two numbers for ``ROOT/src`` (ROOT defaults to the checkout
this file lives in): its code lines and all its lines. A code line
holds at least one token that is not a comment, and is not part of a
docstring; blank lines, comment lines and docstrings are left out. A
docstring is a string literal standing alone as the first statement of
a module, class or function.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(code lines, all lines) of one Python source text."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip), len(text.splitlines())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = args[0] if args else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    code = total = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    c, t = count(fh.read())
                code += c
                total += t
    print(f"code lines {code}, all lines {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
