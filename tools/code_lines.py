"""Count the code lines of Python files: non-blank lines that are not comments or docstrings.

    python3 tools/code_lines.py src/blkp perfbench

prints each file's count and each argument's total. A line counts when
it holds a token other than a comment or a docstring; a statement or a
string that spans several lines counts each of them.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    source = Path(path).read_text()
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    for root in argv or ["src/blkp"]:
        root = Path(root)
        if not root.exists():
            sys.exit(f"code_lines.py: no such file or directory: {root}")
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  {root} (total)")


if __name__ == "__main__":
    main(sys.argv[1:])
