import argparse

import pytest

import typlab
from typlab.cli import _build_parser, main

# The public API, sorted.  A name enters or leaves only by editing this list.
EXPORTS = [
    "TyplabError",
    "execute_run",
    "load_config",
    "run_verification",
]

# The CLI's subcommands.  A command enters or leaves only by editing this list.
SUBCOMMANDS = ["plot", "run", "verify"]


def test_all_is_the_pinned_sorted_list():
    assert EXPORTS == sorted(EXPORTS)
    assert typlab.__all__ == EXPORTS
    assert all(hasattr(typlab, name) for name in EXPORTS)


def test_subcommands_are_the_pinned_list(capsys):
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == SUBCOMMANDS
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--config", "unused.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'moments'" in capsys.readouterr().err
