"""Each checked rule is stated once: no two `raise` sites under
src/distmeantest carry the same message template.  A second site with the
same message is a second statement of the rule it checks; the boundaries
that need the rule call its one statement instead.  The lower bound of every
count, budget, length and seed and the int64 limit each raise from their one
helper, whatever the bounded value is called.  The referee's two-sample
minimum, the int64 limit, the retention scale, the run that both
heterogeneous plans send, the referee's accept rule, the wrong-call rule,
the greedy groups and the 7L group requirement each have one home, and no
module-level name is kept in the package that no package code reads and no
`__all__` exports."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from distmeantest.binary_test import bpmt_moments_oracle, collision_statistic
from distmeantest.errors import DegenerateInputError, ParameterError
from distmeantest.harness import PopulationConfig, UserRuns
from distmeantest.protocols import (REPETITIONS, UserSpec, hetero_comm_params, hetero_comm_plan,
                                    hetero_pair_weight, hetero_samples_plan, seed_block_length)
from distmeantest.randomness import PublicSeed
from test_law_once import named, nodes_in_functions, sites

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


def test_sample_count_rule_is_one_message():
    # the referee's statistic and its oracle state n >= 2 once
    messages = set()
    for build in (lambda: collision_statistic(np.zeros((1, 4), np.uint8)),
                  lambda: bpmt_moments_oracle(np.full(4, 0.5), 1)):
        with pytest.raises(DegenerateInputError) as info:
            build()
        messages.add(str(info.value))
    assert messages == {"need at least 2 samples, got 1"}


def is_read(node: ast.AST) -> bool:
    """Whether a node loads a name, by itself or as an attribute."""
    return (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute))


def reads(name: str):
    """A `sites` matcher of the reads of one name."""
    return lambda node: is_read(node) and named(node) == name


def test_int64_limit_has_one_home():
    assert sites(lambda node: named(node) == "iinfo") == {"binary_test.py:None"}
    assert sites(reads("INT64")) == {"binary_test.py:check_referee_size", "harness.py:_expect"}


def test_referee_minimum_has_one_home():
    assert sites(reads("MIN_SAMPLES")) == {"binary_test.py:_check_sample_count",
                                           "protocols.py:__init__", "protocols.py:_pairwise_referee"}


def test_retention_factor_is_read_only_by_retained_scale():
    assert sites(reads("RETENTION_FACTOR")) == {"brht.py:retained_scale"}


def test_hetero_plans_share_one_run_builder():
    assert sites(lambda node: isinstance(node, ast.Call) and named(node.func) == "_one_run_plan"
                 ) == {"protocols.py:hetero_samples_plan", "protocols.py:hetero_comm_plan"}


@pytest.mark.parametrize("build", [
    lambda: hetero_samples_plan(np.array([7, 14, 21]), 8, 56, 1.0, 0, count=[2, 1, 1]),
    lambda: hetero_comm_plan(np.array([14, 21, 28]), 8, 1.0, 0, count=[2, 2, 2]),
], ids=["hetero_samples", "hetero_comm"])
def test_hetero_plans_send_one_run_object(build):
    runs = build().runs
    assert len(runs) == REPETITIONS and all(run is runs[0] for run in runs)


def sides(node: ast.Compare) -> list[ast.AST]:
    """The operands of a comparison."""
    return [node.left, *node.comparators]


def test_accept_rule_has_one_home():
    # T is compared with tau only by referee_accepts; check_threshold's
    # range check compares tau with a constant
    def t_against_tau(node):
        return (isinstance(node, ast.Compare) and any(named(side) == "tau" for side in sides(node))
                and not any(isinstance(side, ast.Constant) for side in sides(node)))
    assert sites(t_against_tau) == {"binary_test.py:referee_accepts"}


def test_wrong_call_rule_has_one_home():
    def verdict_equality(node):
        return (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(named(part) in ("ACCEPT", "REJECT") for part in ast.walk(node)))
    assert {site for site in sites(verdict_equality) if site.startswith("harness.py:")
            } == {"harness.py:_wrong_call"}


def call_sites(name: str) -> list[str]:
    """file:function of every call of `name` under SRC, one entry per call."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{function}" for node, function in nodes_in_functions(tree)
                  if isinstance(node, ast.Call) and named(node.func) == name]
    return found


def test_group_requirement_is_written_once():
    def seven_l(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and {named(node.left), named(node.right)} == {"REPETITIONS", "L"})
    assert sites(seven_l) == {"protocols.py:_group_bits"}


def test_greedy_groups_are_built_at_one_site():
    # the groups builder of `_greedy_groups`, which the mix-and-match plan
    # and greedy_partition both read
    assert call_sites("_group_sizes") == ["protocols.py:groups"]


def module_names(tree: ast.Module) -> set[str]:
    """The functions and classes a module defines at its top level, and the
    names its top level assigns."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names - {"__all__"}


def test_every_module_name_is_read_or_exported():
    defined, read, exported = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.stem == "__init__":
            exported.update(named(node) for node in ast.walk(tree) if isinstance(node, ast.alias))
            continue
        defined.update((name, path.name) for name in module_names(tree))
        read.update(named(node) for node in ast.walk(tree) if is_read(node))
        exported.update(next((ast.literal_eval(node.value) for node in tree.body
                              if isinstance(node, ast.Assign)
                              and named(node.targets[0]) == "__all__"), ()))
    assert {f"{where}: {name}" for name, where in defined.items()
            if name not in read | exported} == set()


def test_each_public_name_is_listed_once():
    # each module's `__all__` is the one list of its public names: the root
    # re-exports them by `from .module import *` and lists no name itself
    root = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert {node.name for node in ast.walk(root) if isinstance(node, ast.alias)} == {"*"}
    listed = [name for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
              for name in getattr(importlib.import_module(f"distmeantest.{path.stem}"),
                                  "__all__", ())]
    assert len(listed) == len(set(listed))
