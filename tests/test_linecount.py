"""tools/linecount.py: physical lines as wc -l counts them, and code lines
without comments, docstrings and blank lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecount.py"

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,
        two lines."""
        text = """a string that is
        code, not a docstring"""

        return text


def g(): return "one line, code"
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(path)], check=True,
                         capture_output=True, text=True).stdout
    # code: import, class, def, the string's two lines, return, def g
    assert out.splitlines() == ["module\tlines\tcode", "sample.py\t20\t7", "total\t20\t7"]


def test_with_no_file_it_counts_every_library_module():
    out = subprocess.run([sys.executable, str(TOOL)], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    library = sorted((TOOL.parents[1] / "src" / "glembed").glob("*.py"))
    assert [line.split("\t")[0] for line in out] == ["module", *(p.name for p in library),
                                                     "total"]
    rows = [list(map(int, line.split("\t")[1:])) for line in out[1:]]
    assert rows[-1] == [sum(r[0] for r in rows[:-1]), sum(r[1] for r in rows[:-1])]
    assert rows[-1][0] == sum(p.read_text(encoding="utf-8").count("\n") for p in library)
