"""Every size rule of the CLI and the check suites: README.md states it with
its value, and a test shows through the CLI that it admits a request exactly
at its cap."""

import ast
from pathlib import Path

import pytest

from _size_rules import SIZE_RULES

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


@pytest.mark.parametrize("rule", [f"`{rule}` = {value:,}" for rule, value in SIZE_RULES.items()])
def test_readme_names_the_size_rule(rule):
    # a rule may wrap across README lines
    assert rule in " ".join(README.read_text().split())


def _boundary_tested(source: str) -> set[str]:
    """The `rule` argument of each assert_cap_is_inclusive call in source."""
    calls = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "assert_cap_is_inclusive"
    ]
    rules = [call.args[2] for call in calls if len(call.args) > 2]
    rules += [kw.value for call in calls for kw in call.keywords if kw.arg == "rule"]
    return {rule.value for rule in rules if isinstance(rule, ast.Constant)}


def test_every_size_rule_has_a_boundary_test():
    tested = set().union(*(_boundary_tested(path.read_text()) for path in TESTS.glob("*.py")))
    assert set(SIZE_RULES) <= tested, sorted(set(SIZE_RULES) - tested)


def test_the_guard_reads_each_form_of_call():
    source = (
        'assert_cap_is_inclusive(capsys, patch, "cli.A_MAX_B", argv, 3, "text")\n'
        'rules.assert_cap_is_inclusive(capsys, patch, argv=[], count=1, rule="c.C_MAX_D")\n'
        'assert_refused(capsys, patch, "cli.E_MAX_F", "text")\n'
    )
    assert _boundary_tested(source) == {"cli.A_MAX_B", "c.C_MAX_D"}
