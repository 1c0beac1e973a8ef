"""The CLI's size rules, and the one way a test asserts that the CLI refuses
a request: exit 2, the exact message on stderr, and under --json the same
message in the envelope, before any of the named functions runs.  pytest
collects only test_*.py files, so this module is imported, never collected.
"""

import json
import sys

import pytest

from segrsk import checks, cli

# `module.NAME` -> value of each module-level int whose name holds _MAX_;
# README.md states every one, and each is the rule of an
# assert_cap_is_inclusive call
SIZE_RULES = {
    f"{module.__name__.rpartition('.')[2]}.{name}": value
    for module in (cli, checks)
    for name, value in vars(module).items()
    if "_MAX_" in name and isinstance(value, int) and not isinstance(value, bool)
}

# every suite `segrsk check` can run; none may start on a refused request
CHECK_SUITES = tuple(f for name, f in vars(checks).items() if name.startswith("suite_"))


def assert_refused(capsys, monkeypatch, argv, message, never=()):
    """`segrsk argv` exits 2 with `precondition error: message` on stderr and
    nothing on stdout, and with --json the same message in the envelope;
    neither run calls a function of `never`."""
    line = f"precondition error: {message}"
    envelope = {"status": "precondition_error", "payload": {}, "diagnostics": [line]}
    with monkeypatch.context() as patch:
        for func in never:
            def refuse(*args, name=func.__name__, **kwargs):
                pytest.fail(f"{name} ran on a refused request")

            patch.setattr(sys.modules[func.__module__], func.__name__, refuse)
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", line + "\n")
        code = cli.main([*argv, "--json"])
        captured = capsys.readouterr()
        assert (code, json.loads(captured.out), captured.err) == (2, envelope, line + "\n")


def assert_cap_is_inclusive(capsys, monkeypatch, rule, argv, count, message, never=()):
    """With the size rule `rule` (`module.NAME`) at `count`, `segrsk argv`
    exits 0; at `count - 1` it is refused with `message`."""
    with monkeypatch.context() as patch:
        patch.setattr(f"segrsk.{rule}", count)
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        patch.setattr(f"segrsk.{rule}", count - 1)
        assert_refused(capsys, patch, argv, message, never)
