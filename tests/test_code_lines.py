"""Code lines: the size of src/wpsdeg that ROADMAP tracks.

A code line is a physical line that holds a token, leaving out blank lines,
comments and docstrings (module, class and function).  A statement or a
string that spans several lines counts every line it spans.

    python tests/test_code_lines.py

prints the count of every module of src/wpsdeg and their total.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wpsdeg"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


FIXTURE = '''"""Module docstring,
two lines."""

# a comment
import os  # a trailing comment


class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring,

        three lines."""
        text = """a string that is
        not a docstring"""
        return (1 +
                2)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, class, def, the two-line string and the two-line return
    assert code_lines(FIXTURE) == 7


if __name__ == "__main__":
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16} {count:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
