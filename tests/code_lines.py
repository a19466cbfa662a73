"""Line counts of the ``equilib`` package: total lines and code lines per
module, plus their sums.

A code line holds a token that is not a comment, outside docstrings (the
string that opens a module, class or function body).  A token spanning
several lines, such as a multi-line string, makes each of them a code line.

Run from a checkout::

    python tests/code_lines.py [package-dir]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equilib"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``(total lines, code lines)`` of Python ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return (len(source.splitlines()),
            len(code - _docstring_lines(ast.parse(source))))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    sums = [0, 0]
    print(f"{'module':<18} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        sums[0] += lines
        sums[1] += code
        print(f"{path.name:<18} {lines:>6} {code:>6}")
    print(f"{'total':<18} {sums[0]:>6} {sums[1]:>6}")


if __name__ == "__main__":
    main()
