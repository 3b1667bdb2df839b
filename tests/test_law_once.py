"""The bit law has one statement: under src/distmeantest, `erfc` is read
only by `sign_flip_prob`, the law of one quantized coordinate, and
`sign_flip_prob` is called only by `flip_probs`, the law of a trial's bits.
Any other reader would state the law a second time."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "distmeantest"


def named(node: ast.AST) -> str | None:
    """The name a node reads or imports: `x`, `a.x` and `import ... x` give x."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def nodes_in_functions(tree: ast.AST) -> list[tuple[ast.AST, str | None]]:
    """Every node of a tree, with the name of the innermost function that
    holds it (None at module and class level)."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            out.append((child, inner))
            visit(child, inner)
    visit(tree, None)
    return out


def sites(matches) -> set[str]:
    """file:function of every node under SRC for which matches(node) holds."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.update(f"{path.name}:{function}" for node, function in nodes_in_functions(tree)
                     if matches(node))
    return found


def test_sites_name_the_enclosing_function():
    tree = ast.parse("from math import erfc\n"
                     "def outer():\n    def inner():\n        return math.erfc(0)\n"
                     "    return erfc(1)\n")
    found = {(named(node), function) for node, function in nodes_in_functions(tree)
             if named(node) == "erfc"}
    assert found == {("erfc", None), ("erfc", "inner"), ("erfc", "outer")}


def test_erfc_is_read_only_by_sign_flip_prob():
    assert sites(lambda node: named(node) == "erfc") == {"protocols.py:sign_flip_prob"}


def test_sign_flip_prob_is_called_only_by_flip_probs():
    assert sites(lambda node: isinstance(node, ast.Call) and named(node.func) == "sign_flip_prob"
                 ) == {"protocols.py:flip_probs"}
