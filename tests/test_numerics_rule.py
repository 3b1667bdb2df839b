"""The numerics rule: scipy is installed but is not a dependency, so no file
under src/ or tests/ imports it; numpy and math are the only numerics."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    """The top-level package of every import statement in one file."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_file_imports_scipy():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    offenders = [str(path.relative_to(ROOT)) for path in files if "scipy" in imported_modules(path)]
    assert offenders == []
