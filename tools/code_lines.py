"""Count code lines of Python sources: the size metric the ROADMAP tracks.

A code line holds at least one token other than a comment, a newline or an
indent. Module, class and function docstrings are left out of it. Prints the
count per file, the total, and the total of the lines the docstrings span:

    python3 tools/code_lines.py src/vratio
"""

import ast
import sys
import tokenize
from pathlib import Path

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> tuple[int, int]:
    """The code lines of a file, and the lines its docstrings span."""
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _BLANK:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip), len(skip)


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["src/vratio"]:
        root = Path(arg)
        paths.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total = docs = 0
    for path in paths:
        count, doc_count = code_lines(path)
        total += count
        docs += doc_count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    print(f"{docs:6d} docstring total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
