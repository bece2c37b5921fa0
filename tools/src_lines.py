"""Count the code lines of the package: lines that are not blank, not only a
comment and not part of a docstring.

    python tools/src_lines.py [package-dir]

prints one line per module and the total.  `ast` finds the docstrings
(the first statement of a module, class or function when it is a string)
and `tokenize` the comments.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in `source`."""
    lines = source.splitlines()
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            docstring = node.body[0]
            code.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return sum(1 for row in code if lines[row - 1].strip())


def main(argv):
    default = Path(__file__).resolve().parents[1] / "src" / "spdesim"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
