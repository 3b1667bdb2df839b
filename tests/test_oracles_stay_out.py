"""Test oracles stay beside the tests: no name that tests/oracles.py defines is
defined again under src/distmeantest or exported by `distmeantest`, and the
test-only methods that were removed from the package stay removed."""

import ast
import importlib
from pathlib import Path

import distmeantest
from distmeantest import BrhtSpec, Transcript

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "distmeantest"


def defined_names(path: Path) -> set[str]:
    """Every function and class a file defines, at any depth, and every name
    its module level assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


ORACLES = defined_names(TESTS / "oracles.py")


def test_oracles_are_found():
    assert {"naive_hadamard_apply", "gf_mul", "gf_poly_eval", "assemble_wraparound",
            "transcript_from_lengths"} <= ORACLES


def test_no_oracle_is_defined_in_the_package():
    where = {f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in defined_names(path) & ORACLES}
    assert where == set()


def test_no_oracle_is_exported_by_the_package():
    exported = set(dir(distmeantest))
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module(f"distmeantest.{path.stem}")
            exported.update(getattr(module, "__all__", ()))
    assert exported & ORACLES == set()


def test_removed_test_only_methods_stay_removed():
    assert not hasattr(Transcript, "from_lengths")
    assert not hasattr(BrhtSpec, "expanded_signs")
