"""Each checked rule is stated once: no two `raise` sites under
src/distmeantest carry the same message template.  A second site with the
same message is a second statement of the rule it checks; the boundaries
that need the rule call its one statement instead."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "distmeantest"


def message_template(node: ast.AST) -> str | None:
    """The message of a string literal or f-string, with every formatted
    value written as {}; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def raise_sites(path: Path) -> list[tuple[str, str]]:
    """(message template, file:line) of every `raise E(message, ...)` in one file."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            template = message_template(node.exc.args[0])
            if template is not None:
                sites.append((template, f"{path.name}:{node.lineno}"))
    return sites


def test_template_extraction():
    tree = ast.parse('raise ParameterError(f"{what} must be >= 1, got {value!r}")')
    assert message_template(tree.body[0].exc.args[0]) == "{} must be >= 1, got {}"


def test_no_message_is_raised_from_two_sites():
    where = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for template, site in raise_sites(path):
            where[template].append(site)
    assert where, "no raise sites found"
    shared = {template: sites for template, sites in where.items() if len(sites) > 1}
    assert shared == {}
