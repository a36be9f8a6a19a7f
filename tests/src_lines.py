"""Line counts of the package source: raw lines and code lines per module.

    python tests/src_lines.py [SRC [BASE_SRC]]

SRC is the source directory (default: the src/ beside this tests/
directory); every .py file under it is counted. A code line holds a
token other than a comment, and no line of a docstring (the string
literal that opens a module, class or function body) is a code line, so
blank, comment-only and docstring lines are not counted. The last row
is the total. Given a second source directory BASE_SRC, such as the src/
of a checkout of the parent commit, two more rows follow: its total, and
the net change from it to SRC.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
))
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple:
    """(raw lines, code lines) of a module's text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def rows(src: Path) -> list:
    """(module, raw, code) per .py file under src, then the total row."""
    out = [(str(path.relative_to(src)), *counts(path.read_text(encoding="utf-8")))
           for path in sorted(src.rglob("*.py"))]
    out.append(("total", sum(r[1] for r in out), sum(r[2] for r in out)))
    return out


def main(argv) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    table = rows(src)
    if len(argv) > 1:
        _, raw, code = rows(Path(argv[1]))[-1]
        table += [("base total", raw, code),
                  ("change", f"{table[-1][1] - raw:+d}", f"{table[-1][2] - code:+d}")]
    width = max(len(r[0]) for r in table)
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in table:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
