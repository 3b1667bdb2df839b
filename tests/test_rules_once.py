"""Each checked rule is stated once: no two `raise` sites under
src/distmeantest carry the same message template.  A second site with the
same message is a second statement of the rule it checks; the boundaries
that need the rule call its one statement instead.  The lower bound of every
count, budget, length and seed and the int64 limit each raise from their one
helper, whatever the bounded value is called."""

import ast
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from distmeantest.errors import ParameterError
from distmeantest.harness import PopulationConfig, UserRuns
from distmeantest.protocols import (UserSpec, hetero_comm_params, hetero_pair_weight,
                                    seed_block_length)
from distmeantest.randomness import PublicSeed
from test_law_once import nodes_in_functions

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


# the one helper that raises each rule, by a fragment of its message
HELPERS = {"must be >= ": "errors.py:check_at_least",
           "does not fit in a 64-bit integer": "harness.py:_expect"}


def test_bounds_are_raised_only_by_their_helper():
    found = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node, function in nodes_in_functions(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = message_template(node.exc.args[0]) or ""
                for fragment in HELPERS:
                    if fragment in template:
                        found[fragment].add(f"{path.name}:{function}")
    assert found == {fragment: {site} for fragment, site in HELPERS.items()}


def raised_from(build) -> str:
    """file:function of the frame that raised build()'s ParameterError."""
    with pytest.raises(ParameterError) as info:
        build()
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_frame.f_code.co_name}"


def config(**fields) -> PopulationConfig:
    return PopulationConfig(**{"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
                               "users": UserRuns([1], [8], [16]), **fields})


@pytest.mark.parametrize("site, builds", [
    ("errors.py:check_at_least", [lambda: UserSpec(0, 8), lambda: UserRuns([0], [8], [1]),
                                  lambda: hetero_pair_weight([0, 7])]),
    ("errors.py:check_at_least", [lambda: UserSpec(1, 0), lambda: UserRuns([1], [0], [1]),
                                  lambda: hetero_comm_params(16, [7, 0], 0)]),
    ("errors.py:check_at_least", [lambda: config(s=-1), lambda: seed_block_length(16, -1),
                                  lambda: PublicSeed.random(-1, np.random.default_rng(0))]),
    ("harness.py:_expect", [lambda: UserRuns([1, 1], [8, 16], [2 ** 62, 2 ** 62]),
                            lambda: config().scaled(2 ** 62),
                            lambda: PopulationConfig.from_dict(
                                {**config().to_dict(), "users": [{"m": 1, "ell": 8,
                                                                  "count": 10 ** 23}]})]),
], ids=["m", "ell", "s", "int64"])
def test_each_bound_raises_from_one_site(site, builds):
    assert {raised_from(build) for build in builds} == {site}
