"""Physical and code lines per module of the library, and their total.

    python3 tools/linecount.py [FILE ...]

With no FILE, counts every ``src/glembed/*.py`` of the checkout that holds
this script.  A physical line is a newline, as ``wc -l`` counts them.  A code
line holds a token of Python other than a comment, a docstring (the string
that opens a module, class or function body) or the layout tokens of blank
lines and indentation; a token that spans lines makes each of them a code
line.  Prints one tab-separated row per file and a ``total`` row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of the Python source ``text``."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING
                                           and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "glembed").glob("*.py"))
    rows = [(p.name, *count(p.read_text(encoding="utf-8"))) for p in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("module\tlines\tcode")
    for name, lines, code in rows:
        print(f"{name}\t{lines}\t{code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
