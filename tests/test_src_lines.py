import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


def f(a,
      b):
    """A function docstring."""
    text = """a string literal
that is code"""
    return (a +
            b)
'''


def test_count_lines_skips_docstrings_comments_and_blank_lines():
    # code: import, def over two lines, the three-line assignment, the two-line return
    assert src_lines.count_lines(MODULE) == (14, 7)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "14", "7"], ["b.py", "2", "1"], ["total", "16", "8"]]
