"""The line counts of ``tools/src_lines.py`` on a small fixture module."""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import src_lines  # noqa: E402

FIXTURE = '''"""Module docstring.

Its blank line above counts as docstring.
"""

# a comment line
import os  # a trailing comment leaves this a code line


class Box:
    """One line."""

    size = 1

    def area(self):
        """Two
        lines."""
        text = """not a
docstring"""
        return len(text)  # code

'''


def test_each_line_is_counted_once_by_kind():
    assert src_lines.count(FIXTURE) == {
        "total": 21,
        "docstring": 7,  # lines 1-4, 11, 16 and 17
        "comment": 1,  # line 6
        "blank": 6,  # lines 5, 8, 9, 12, 14 and 21
        "code": 7,  # lines 7, 10, 13, 15 and 18-20, a string's two included
    }


def test_json_sums_the_files(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main(["--json", str(tmp_path)]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert sorted(counts) == ["a.py", "b.py", "total"]
    assert counts["b.py"] == {
        "total": 3, "docstring": 0, "comment": 1, "blank": 1, "code": 1}
    assert counts["total"] == {
        kind: counts["a.py"][kind] + counts["b.py"][kind] for kind in src_lines.KINDS}
