"""Every tool under tools/ has a Tier-1 test: `tools/<name>.py` is tested by
`tests/test_<name>.py`, which names the file it tests.  A tool that no test
runs is not kept."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def test_there_are_tools():
    assert TOOLS


@pytest.mark.parametrize("tool", TOOLS, ids=lambda path: path.name)
def test_each_tool_has_a_test(tool):
    test = ROOT / "tests" / f"test_{tool.stem}.py"
    assert test.is_file(), f"tools/{tool.name} has no test: add tests/{test.name}"
    assert tool.name in test.read_text(encoding="utf-8"), \
        f"tests/{test.name} does not name tools/{tool.name}"
