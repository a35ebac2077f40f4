"""Line counts of the library's modules, split by kind.

For each `src/omcanon/*.py` it prints the total lines and how many of them
are docstring, comment, blank and code lines, then the totals.  A line
within a docstring (the first statement of a module, class or function,
when it is a string literal) is a docstring line.  Outside them, a line
that holds only a comment is a comment line, a line that holds only
whitespace and lies inside no string is blank, and every other line is
code.  So the four parts sum to the total, and the code count moves only
when code does, where `wc -l` also counts docstring proofs and comments.

    python tools/loc.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "omcanon"
KINDS = ("docstring", "comment", "blank", "code")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(text: str) -> dict:
    """{kind: lines} of a module's source text, over KINDS."""
    lines = io.StringIO(text).readlines()
    kinds = ["code"] * len(lines)
    in_string = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row, col = tok.start
        if tok.end[0] > row:  # a string over several lines
            in_string.update(range(row, tok.end[0] + 1))
        elif tok.type == tokenize.COMMENT and not tok.line[:col].strip():
            kinds[row - 1] = "comment"
    for row, line in enumerate(lines, 1):
        if not line.strip() and row not in in_string:
            kinds[row - 1] = "blank"
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            kinds[doc.lineno - 1:doc.end_lineno] = (
                ["docstring"] * (doc.end_lineno - doc.lineno + 1))
    return {kind: kinds.count(kind) for kind in KINDS}


def main() -> int:
    paths = sorted(SRC.glob("*.py"))
    width = max(len(p.name) for p in paths)
    print(f"{'module':<{width}}  {'total':>6}"
          + "".join(f"  {kind:>9}" for kind in KINDS))
    totals = dict.fromkeys(("total",) + KINDS, 0)
    for path in paths:
        counts = split(path.read_text(encoding="utf-8"))
        counts = {"total": sum(counts.values()), **counts}
        for kind, count in counts.items():
            totals[kind] += count
        print(f"{path.name:<{width}}  {counts['total']:>6}"
              + "".join(f"  {counts[kind]:>9}" for kind in KINDS))
    print(f"{'total':<{width}}  {totals['total']:>6}"
          + "".join(f"  {totals[kind]:>9}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
