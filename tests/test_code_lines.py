"""tools/code_lines.py: which lines of a Python file count as code."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# (source line, counts as code)
FIXTURE = [
    ('"""Module docstring', False),
    ('spanning two lines."""', False),
    ("# a comment-only line", False),
    ("import os", True),
    ("", False),
    ('TEXT = """a string that', True),
    ("is not a docstring,", True),
    ('on three lines"""', True),
    ("", False),
    ("", False),
    ("class Thing:", True),
    ("    '''Class docstring.'''", False),
    ("", False),
    ("    def method(self):", True),
    ('        """Method docstring,', False),
    ('        on two lines."""', False),
    ("        # indented comment", False),
    ("        return os.sep  # a trailing comment", True),
    ("", False),
    ("", False),
    ("async def run():", True),
    ('    """Async docstring."""', False),
    ("    value = (1 +", True),
    ("             2)", True),
    ("    return value", True),
]
FIXTURE_CODE_LINES = sum(counts for _, counts in FIXTURE)


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text("\n".join(line for line, _ in FIXTURE) + "\n")
    return path


def test_docstrings_comments_and_blanks_do_not_count(fixture_path):
    assert FIXTURE_CODE_LINES == 11
    assert code_lines.code_lines(str(fixture_path)) == FIXTURE_CODE_LINES


def test_docstring_lines_are_the_docstrings(fixture_path):
    tree = ast.parse(fixture_path.read_text())
    assert code_lines.docstring_lines(tree) == {1, 2, 12, 15, 16, 22}


def test_string_that_is_not_a_docstring_counts_on_every_line(tmp_path):
    path = tmp_path / "strings.py"
    path.write_text('x = 1\ny = """one\n\n# not a comment\n"""\n')
    assert code_lines.code_lines(str(path)) == 5


def test_printed_lines(fixture_path, tmp_path, capsys):
    other = tmp_path / "other.py"
    other.write_text("a = 1\n\nb = 2\n")
    assert code_lines.main([str(fixture_path)]) == 0
    assert capsys.readouterr().out == f"{FIXTURE_CODE_LINES:6d}  {fixture_path}\n"
    assert code_lines.main([str(fixture_path), str(other)]) == 0
    assert capsys.readouterr().out == (f"    11  {fixture_path}\n"
                                       f"     2  {other}\n"
                                       f"    13  total\n")
