"""README.md states every size rule of the CLI and the check suites, with its value."""

from pathlib import Path

import pytest

from segrsk import checks, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _size_rules() -> list[str]:
    """`module.NAME` = VALUE for each module-level int whose name holds _MAX_."""
    return [
        f"`{module.__name__.rpartition('.')[2]}.{name}` = {value:,}"
        for module in (cli, checks)
        for name, value in vars(module).items()
        if "_MAX_" in name and isinstance(value, int) and not isinstance(value, bool)
    ]


@pytest.mark.parametrize("rule", _size_rules())
def test_readme_names_the_size_rule(rule):
    # a rule may wrap across README lines
    assert rule in " ".join(README.read_text().split())
